package transport

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy configures a ReliableEndpoint. Every send is retried on one
// fixed schedule (sendAttempts tries, waits of about 10, 20 and 40ms with
// ±20% jitter); the policy only seeds its jitter.
type RetryPolicy struct {
	// Seed drives the jitter randomness (deterministic tests and runs).
	Seed int64
}

const (
	// sendAttempts is the number of tries per send, including the first.
	sendAttempts = 4
	// retryBase is the wait before the first retry; each later retry
	// doubles it.
	retryBase = 10 * time.Millisecond
	// retryJitter is the fraction of each delay that is randomized.
	retryJitter = 0.2
)

// retryDelay returns the jittered wait before retry number retry
// (0-based): retryBase·2^retry scaled by a uniform factor in
// [1−retryJitter, 1+retryJitter]. Callers must hold whatever lock guards
// rng.
func retryDelay(retry int, rng *rand.Rand) time.Duration {
	d := float64(retryBase)
	for i := 0; i < retry; i++ {
		d *= 2
	}
	d *= 1 - retryJitter + 2*retryJitter*rng.Float64()
	return time.Duration(d)
}

// sleepCtx waits for the given duration or until the context is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ReliabilityStats is a snapshot of a ReliableEndpoint's counters.
type ReliabilityStats struct {
	// Sends counts Send calls; Retries counts extra attempts beyond the
	// first.
	Sends, Retries int64
}

// ReliableEndpoint wraps an Endpoint with per-send retries (exponential
// backoff + jitter); it is the only retry loop in the transport. Recv
// passes every message through: a duplicate, from a faulty link or from a
// retry whose failed attempt still reached the peer, is absorbed by the
// protocol's (sweep, phase) identity (see internal/sim).
//
// Send never retries on context cancellation or on ErrClosed/ErrUnknownPeer
// (the peer set is static in this protocol, so an unknown name cannot
// become known by waiting). A hub send fails only in those ways, so the
// wrapper belongs over TCP, whose TCPEndpoint.Send makes a single attempt
// and leaves the redial to the next one.
type ReliableEndpoint struct {
	inner Endpoint

	mu    sync.Mutex
	rng   *rand.Rand
	stats ReliabilityStats
}

var _ Endpoint = (*ReliableEndpoint)(nil)

// NewReliableEndpoint wraps inner, seeding the retry jitter from policy.
// The error is always nil.
func NewReliableEndpoint(inner Endpoint, policy RetryPolicy) (*ReliableEndpoint, error) {
	return &ReliableEndpoint{
		inner: inner,
		rng:   rand.New(rand.NewSource(policy.Seed)),
	}, nil
}

// Name implements Endpoint.
func (e *ReliableEndpoint) Name() string { return e.inner.Name() }

// Send implements Endpoint with retries.
func (e *ReliableEndpoint) Send(ctx context.Context, to string, m Message) error {
	e.mu.Lock()
	e.stats.Sends++
	e.mu.Unlock()

	var lastErr error
	for attempt := 0; attempt < sendAttempts; attempt++ {
		if attempt > 0 {
			e.mu.Lock()
			e.stats.Retries++
			d := retryDelay(attempt-1, e.rng)
			e.mu.Unlock()
			if err := sleepCtx(ctx, d); err != nil {
				return err
			}
		}
		err := e.inner.Send(ctx, to, m)
		if err == nil {
			return nil
		}
		lastErr = err
		if ctx.Err() != nil || errors.Is(err, ErrClosed) || errors.Is(err, ErrUnknownPeer) {
			break
		}
	}
	return lastErr
}

// Recv implements Endpoint.
func (e *ReliableEndpoint) Recv(ctx context.Context) (Message, error) { return e.inner.Recv(ctx) }

// Close implements Endpoint.
func (e *ReliableEndpoint) Close() error { return e.inner.Close() }

// Stats returns a snapshot of the reliability counters.
func (e *ReliableEndpoint) Stats() ReliabilityStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}
