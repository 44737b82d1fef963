package transport

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestTCPRestartStorm replays the cluster supervisor's restart storm at
// the transport layer: a long-lived receiver keeps serving while peer
// "sbs" is repeatedly torn down and relaunched on the same address, as a
// supervised agent is. Every incarnation's messages must reach the
// application. A sender goroutine hammers the restarting address
// throughout so the redial path races the listener teardown/rebind; run
// under -race (verify.sh does).
func TestTCPRestartStorm(t *testing.T) {
	ctx := testCtx(t)
	bsTCP, err := NewTCPEndpoint("bs", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bsTCP.Close()
	bs, err := NewReliableEndpoint(bsTCP, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}

	const (
		generations = 4
		perGen      = 8
	)

	// Pin the peer's address by binding once and immediately recycling it,
	// so every incarnation below can rebind the same port.
	probe, err := NewTCPEndpoint("sbs", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr()
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	bsTCP.AddPeer("sbs", addr)

	// Background hammer: the bs keeps sending into the restarting address
	// for the whole storm, racing connTo/dropConn against the peer's
	// teardown and rebind. Delivery failures are expected mid-restart;
	// only a deadlock or a race report fails the test.
	hammerCtx, stopHammer := context.WithCancel(ctx)
	defer stopHammer()
	var hammer sync.WaitGroup
	hammer.Add(1)
	go func() {
		defer hammer.Done()
		for hammerCtx.Err() == nil {
			_ = bs.Send(hammerCtx, "sbs", Message{Type: MsgDone})
			time.Sleep(time.Millisecond)
		}
	}()

	type stamp struct{ sweep, phase int }
	got := make(chan stamp, generations*perGen)
	go func() {
		for {
			m, err := bs.Recv(ctx)
			if err != nil {
				return
			}
			got <- stamp{m.Sweep, m.Phase}
		}
	}()

	for gen := 0; gen < generations; gen++ {
		var sbsTCP *TCPEndpoint
		// The previous incarnation's port lingers briefly after Close;
		// rebinding can need a few attempts even with SO_REUSEADDR.
		for attempt := 0; ; attempt++ {
			if sbsTCP, err = NewTCPEndpoint("sbs", addr); err == nil {
				break
			}
			if attempt >= 100 {
				t.Fatalf("gen %d: rebind %s: %v", gen, addr, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
		sbs, err := NewReliableEndpoint(sbsTCP, RetryPolicy{Seed: int64(gen) + 1})
		if err != nil {
			t.Fatal(err)
		}
		sbsTCP.AddPeer("bs", bsTCP.Addr())

		// Drain the peer's inbox concurrently so the hammer's deliveries
		// cannot back-pressure this incarnation.
		drainCtx, stopDrain := context.WithCancel(ctx)
		var drained sync.WaitGroup
		drained.Add(1)
		go func() {
			defer drained.Done()
			for {
				if _, err := sbs.Recv(drainCtx); err != nil {
					return
				}
			}
		}()

		for i := 0; i < perGen; i++ {
			if err := sbs.Send(ctx, "bs", Message{Type: MsgPolicyUpload, Sweep: gen, Phase: i}); err != nil {
				t.Fatalf("gen %d send %d: %v", gen, i, err)
			}
		}

		// Every message of this incarnation must surface.
		want := make(map[stamp]bool, perGen)
		for i := 0; i < perGen; i++ {
			want[stamp{gen, i}] = true
		}
		deadline := time.After(10 * time.Second)
		for len(want) > 0 {
			select {
			case s := <-got:
				if s.sweep == gen && !want[s] {
					t.Errorf("gen %d: message %+v delivered twice", gen, s)
				}
				delete(want, s)
			case <-deadline:
				t.Fatalf("gen %d: %d messages never delivered: %v", gen, len(want), keys(want))
			}
		}

		stopDrain()
		drained.Wait()
		if err := sbsTCP.Close(); err != nil {
			t.Fatal(err)
		}
	}
	stopHammer()
	hammer.Wait()
}

func keys[K comparable, V any](m map[K]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, fmt.Sprint(k))
	}
	return out
}
