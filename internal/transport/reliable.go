package transport

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy configures a ReliableEndpoint. Every send is retried on one
// fixed schedule (sendRetry: 4 attempts, 10ms doubling, ±20% jitter); the
// policy only seeds its jitter.
type RetryPolicy struct {
	// Seed drives the jitter randomness (deterministic tests and runs).
	Seed int64
}

// backoff is an exponential retry schedule: retry k (0-based) waits
// base·2^k, scaled by a uniform factor in [1−retryJitter, 1+retryJitter].
type backoff struct {
	attempts int           // total tries, including the first
	base     time.Duration // wait before the first retry
}

// retryJitter is the fraction of each backoff delay that is randomized.
const retryJitter = 0.2

var (
	// sendRetry is ReliableEndpoint's per-send schedule: waits of about
	// 10, 20 and 40ms.
	sendRetry = backoff{attempts: 4, base: 10 * time.Millisecond}
	// tcpRedial is TCPEndpoint's schedule for a dead cached connection or
	// a failed dial: waits of about 5 and 10ms ride out a peer restart
	// without stalling the caller for longer than a protocol phase
	// sub-window.
	tcpRedial = backoff{attempts: 3, base: 5 * time.Millisecond}
)

// delay returns the jittered backoff before retry number retry (0-based).
// Callers must hold whatever lock guards rng.
func (b backoff) delay(retry int, rng *rand.Rand) time.Duration {
	d := float64(b.base)
	for i := 0; i < retry; i++ {
		d *= 2
	}
	d *= 1 - retryJitter + 2*retryJitter*rng.Float64()
	return time.Duration(d)
}

// sleep waits for the given duration or until the context is cancelled.
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
	// first; SendFailures counts Sends that exhausted every attempt.
	Sends, Retries, SendFailures int64
}

// ReliableEndpoint wraps an Endpoint with per-send retries (exponential
// backoff + jitter). Recv passes every message through: a duplicate, from
// a faulty link or from a retry whose failed attempt still reached the
// peer, is absorbed by the protocol's (sweep, phase) identity (see
// internal/sim).
//
// Send never retries on context cancellation or on ErrClosed/ErrUnknownPeer
// (the peer set is static in this protocol, so an unknown name cannot
// become known by waiting).
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
	for attempt := 0; attempt < sendRetry.attempts; attempt++ {
		if attempt > 0 {
			e.mu.Lock()
			e.stats.Retries++
			d := sendRetry.delay(attempt-1, e.rng)
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
	e.mu.Lock()
	e.stats.SendFailures++
	e.mu.Unlock()
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
