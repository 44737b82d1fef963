package transport

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
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
	// DupsDropped counts inbound messages discarded by sequence-number
	// deduplication.
	DupsDropped int64
}

// dedupWindowSize bounds the per-peer set of remembered sequence numbers.
// The protocol is request/response with small in-flight counts, so a
// window of 512 comfortably exceeds any realistic retry burst.
const dedupWindowSize = 512

// dedupWindow remembers the last dedupWindowSize sequence numbers from one
// peer; membership is O(1) and eviction is FIFO.
type dedupWindow struct {
	seen  map[uint64]struct{}
	order []uint64
	next  int
}

func newDedupWindow() *dedupWindow {
	return &dedupWindow{seen: make(map[uint64]struct{}), order: make([]uint64, 0, dedupWindowSize)}
}

// observe records seq and reports whether it was already present.
func (w *dedupWindow) observe(seq uint64) bool {
	if _, ok := w.seen[seq]; ok {
		return true
	}
	if len(w.order) < dedupWindowSize {
		w.order = append(w.order, seq)
	} else {
		delete(w.seen, w.order[w.next])
		w.order[w.next] = seq
		w.next = (w.next + 1) % dedupWindowSize
	}
	w.seen[seq] = struct{}{}
	return false
}

// ReliableEndpoint wraps an Endpoint with per-send retries (exponential
// backoff + jitter) and receiver-side sequence-number deduplication, so
// retries compose safely with the at-most-once Endpoint contract: a
// message duplicated by a retry (or by a faulty link) is delivered to the
// application at most once. Messages from senders that do not stamp
// sequence numbers (Seq == 0) pass through untouched.
//
// Send never retries on context cancellation or on ErrClosed/ErrUnknownPeer
// (the peer set is static in this protocol, so an unknown name cannot
// become known by waiting).
type ReliableEndpoint struct {
	inner Endpoint

	nextSeq atomic.Uint64

	mu    sync.Mutex
	rng   *rand.Rand
	seen  map[string]*dedupWindow
	stats ReliabilityStats
}

var _ Endpoint = (*ReliableEndpoint)(nil)

// NewReliableEndpoint wraps inner, seeding the retry jitter from policy.
// The error is always nil.
func NewReliableEndpoint(inner Endpoint, policy RetryPolicy) (*ReliableEndpoint, error) {
	return &ReliableEndpoint{
		inner: inner,
		rng:   rand.New(rand.NewSource(policy.Seed)),
		seen:  make(map[string]*dedupWindow),
	}, nil
}

// Name implements Endpoint.
func (e *ReliableEndpoint) Name() string { return e.inner.Name() }

// AdvanceSeq skips the next n sequence numbers. A restarted sender that
// reuses its peer name must advance past the range its previous
// incarnation used, or receivers still holding those numbers in their
// dedup window will discard its first messages as retry duplicates.
func (e *ReliableEndpoint) AdvanceSeq(n uint64) { e.nextSeq.Add(n) }

// Send implements Endpoint with retries. Each message gets a fresh
// sequence number, so a deliberate re-send by the caller (e.g. a protocol
// retransmission) is a distinct message, while the retries issued here
// reuse the number and are deduplicated by the receiver.
func (e *ReliableEndpoint) Send(ctx context.Context, to string, m Message) error {
	if m.Seq == 0 {
		m.Seq = e.nextSeq.Add(1)
	}
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

// Recv implements Endpoint, dropping sequence-number duplicates.
func (e *ReliableEndpoint) Recv(ctx context.Context) (Message, error) {
	for {
		m, err := e.inner.Recv(ctx)
		if err != nil {
			return m, err
		}
		if m.Seq == 0 {
			return m, nil
		}
		e.mu.Lock()
		w, ok := e.seen[m.From]
		if !ok {
			w = newDedupWindow()
			e.seen[m.From] = w
		}
		dup := w.observe(m.Seq)
		if dup {
			e.stats.DupsDropped++
		}
		e.mu.Unlock()
		if !dup {
			return m, nil
		}
	}
}

// Close implements Endpoint.
func (e *ReliableEndpoint) Close() error { return e.inner.Close() }

// Stats returns a snapshot of the reliability counters.
func (e *ReliableEndpoint) Stats() ReliabilityStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}
