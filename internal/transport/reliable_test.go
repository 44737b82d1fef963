package transport

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// flakyEndpoint fails the first failures Send calls, then succeeds by
// delegating to an in-memory recorder.
type flakyEndpoint struct {
	mu       sync.Mutex
	failures int
	sent     []Message
	closed   bool
}

func (f *flakyEndpoint) Name() string { return "flaky" }

func (f *flakyEndpoint) Send(ctx context.Context, to string, m Message) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.failures > 0 {
		f.failures--
		return errors.New("transient network error")
	}
	m.To = to
	f.sent = append(f.sent, m)
	return nil
}

func (f *flakyEndpoint) Recv(ctx context.Context) (Message, error) {
	return Message{}, errors.New("flaky: no recv")
}

func (f *flakyEndpoint) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

func (f *flakyEndpoint) sentCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sent)
}

// TestBackoffSchedulesPinned pins the exact jittered delays of the one
// retry schedule, a ReliableEndpoint seeded with 7. An edit to the
// schedule or to the jitter shows up here.
func TestBackoffSchedulesPinned(t *testing.T) {
	want := []time.Duration{11675568, 17852057, 35862201}
	rng := rand.New(rand.NewSource(7))
	var got []time.Duration
	for retry := 0; retry < sendAttempts-1; retry++ {
		got = append(got, retryDelay(retry, rng))
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("delays = %v, want %v", got, want)
	}
	// The endpoint draws from the same seeded source.
	ep, err := NewReliableEndpoint(&flakyEndpoint{}, RetryPolicy{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := retryDelay(0, ep.rng); got != 11675568 {
		t.Errorf("ReliableEndpoint first delay = %v, want 11.675568ms", got)
	}
}

func TestReliableSendRetriesUntilSuccess(t *testing.T) {
	inner := &flakyEndpoint{failures: 2}
	ep, err := NewReliableEndpoint(inner, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(testCtx(t), "b", Message{Type: MsgDone}); err != nil {
		t.Fatalf("send after transient failures: %v", err)
	}
	if got := inner.sentCount(); got != 1 {
		t.Errorf("delivered %d messages, want 1", got)
	}
	st := ep.Stats()
	if st.Sends != 1 || st.Retries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestReliableSendExhaustsAttempts(t *testing.T) {
	inner := &flakyEndpoint{failures: 100}
	ep, err := NewReliableEndpoint(inner, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(testCtx(t), "b", Message{Type: MsgDone}); err == nil {
		t.Fatal("want error after exhausting attempts")
	}
	st := ep.Stats()
	if st.Retries != int64(sendAttempts-1) {
		t.Errorf("stats = %+v", st)
	}
}

func TestReliableSendDoesNotRetryUnknownPeer(t *testing.T) {
	hub := NewHub()
	raw, err := hub.Register("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := NewReliableEndpoint(raw, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(testCtx(t), "ghost", Message{Type: MsgDone}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
	if st := ep.Stats(); st.Retries != 0 {
		t.Errorf("unknown peer was retried %d times", st.Retries)
	}
}

func TestReliableSendRespectsContext(t *testing.T) {
	inner := &flakyEndpoint{failures: 100}
	ep, err := NewReliableEndpoint(inner, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	// The schedule's three waits add up to at least 56ms, so the deadline
	// lands before the attempts run out.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- ep.Send(ctx, "b", Message{Type: MsgDone}) }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("cancelled send returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send did not honor context cancellation")
	}
}

// TestFaultyEndpointReorders: with ReorderProb=1 every message is held and
// released after its successor — the adjacent-swap pattern 2,1,4,3 — which
// is the fault class the BS's stale-discard logic must tolerate.
func TestFaultyEndpointReorders(t *testing.T) {
	ctx := testCtx(t)
	hub := NewHub()
	rawA, err := hub.Register("a", 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hub.Register("b", 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewFaultyEndpoint(rawA, FaultConfig{ReorderProb: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := a.Send(ctx, "b", Message{Type: MsgPhaseStart, Sweep: i}); err != nil {
			t.Fatal(err)
		}
	}
	var got []int
	for i := 0; i < 4; i++ {
		m, err := b.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m.Sweep)
	}
	want := []int{2, 1, 4, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("delivery order %v, want %v", got, want)
	}
}

// TestFaultyEndpointReorderFlushOnClose: a held message is not lost when
// the endpoint closes before the next send.
func TestFaultyEndpointReorderFlushOnClose(t *testing.T) {
	ctx := testCtx(t)
	hub := NewHub()
	rawA, err := hub.Register("a", 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hub.Register("b", 8)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewFaultyEndpoint(rawA, FaultConfig{ReorderProb: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, "b", Message{Type: MsgDone, Sweep: 9}); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sweep != 9 {
		t.Errorf("flushed message sweep = %d, want 9", m.Sweep)
	}
}

// TestFaultyEndpointReorderSeededDeterminism: the same seed produces the
// same delivery order twice.
func TestFaultyEndpointReorderSeededDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		ctx := testCtx(t)
		hub := NewHub()
		rawA, err := hub.Register("a", 32)
		if err != nil {
			t.Fatal(err)
		}
		b, err := hub.Register("b", 32)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewFaultyEndpoint(rawA, FaultConfig{ReorderProb: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		const total = 20
		for i := 1; i <= total; i++ {
			if err := a.Send(ctx, "b", Message{Type: MsgPhaseStart, Sweep: i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		var got []int
		for i := 0; i < total; i++ {
			m, err := b.Recv(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, m.Sweep)
		}
		return got
	}
	first, second := run(7), run(7)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Errorf("same seed produced different orders:\n%v\n%v", first, second)
	}
	reordered := false
	for i, v := range first {
		if v != i+1 {
			reordered = true
			break
		}
	}
	if !reordered {
		t.Error("ReorderProb=0.5 over 20 sends produced in-order delivery")
	}
}
