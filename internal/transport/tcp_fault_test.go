package transport

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTCPSendToDeadPeerErrors: once the peer dies and its port stops
// listening, Send must surface an error (the failed write, or the refused
// dial of the next Send) rather than pretending delivery succeeded forever.
func TestTCPSendToDeadPeerErrors(t *testing.T) {
	ctx := testCtx(t)
	a, err := NewTCPEndpoint("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPEndpoint("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer("b", b.Addr())
	if err := a.Send(ctx, "b", Message{Type: MsgDone}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// A write into the half-dead cached connection may succeed locally
	// before the RST lands; keep sending until the failure surfaces.
	var sendErr error
	for attempt := 0; attempt < 100 && sendErr == nil; attempt++ {
		sendErr = a.Send(ctx, "b", Message{Type: MsgDone})
		time.Sleep(5 * time.Millisecond)
	}
	if sendErr == nil {
		t.Fatal("Send to a dead peer never returned an error")
	}
}

// TestTCPSendRecoversAfterRedial: after the peer restarts on the same
// address, the very next Send call through the deployment stack
// (ReliableEndpoint over TCPEndpoint) must succeed: the attempt that hits
// the stale cached connection drops it, and the retry redials.
func TestTCPSendRecoversAfterRedial(t *testing.T) {
	ctx := testCtx(t)
	aTCP, err := NewTCPEndpoint("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer aTCP.Close()
	a, err := NewReliableEndpoint(aTCP, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPEndpoint("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	aTCP.AddPeer("b", addr)
	if err := a.Send(ctx, "b", Message{Type: MsgDone}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := NewTCPEndpoint("b", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	// Sends may lose a message into the stale socket buffer, but with the
	// restarted listener up, the retried redial must deliver promptly.
	received := make(chan struct{})
	go func() {
		if _, err := b2.Recv(ctx); err == nil {
			close(received)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := a.Send(ctx, "b", Message{Type: MsgDone}); err != nil {
			t.Fatalf("Send did not recover after peer restart: %v", err)
		}
		select {
		case <-received:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("restarted peer never received a message")
}

// TestTCPCloseDuringInflightSend: closing the endpoint while Sends are
// mid-dial must not deadlock — every Send returns promptly. Run under
// -race (verify.sh does).
func TestTCPCloseDuringInflightSend(t *testing.T) {
	ctx := testCtx(t)
	a, err := NewTCPEndpoint("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The peer dies immediately, so every Send dials and fails.
	b, err := NewTCPEndpoint("b", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.AddPeer("b", b.Addr())
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Each sender keeps calling Send until one returns ErrClosed, so all
	// eight are inside Send (dialling) when Close runs.
	var wg sync.WaitGroup
	var running atomic.Int32
	final := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			running.Add(1)
			for {
				err := a.Send(ctx, "b", Message{Type: MsgDone})
				if errors.Is(err, ErrClosed) || ctx.Err() != nil {
					final <- err
					return
				}
			}
		}()
	}
	for running.Load() < 8 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Send deadlocked across Close")
	}
	close(final)
	for err := range final {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("in-flight Send ended with %v, want ErrClosed", err)
		}
	}
	// A send on the closed endpoint fails fast.
	if err := a.Send(context.Background(), "b", Message{Type: MsgDone}); err == nil {
		t.Error("Send on closed endpoint succeeded")
	}
}
