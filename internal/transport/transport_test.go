package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestPayloadRoundTrip(t *testing.T) {
	in := AggregateAnnounce{YMinus: [][]float64{{0.1, 0.2}, {0.3, 0}}}
	data, err := EncodePayload(in)
	if err != nil {
		t.Fatal(err)
	}
	var out AggregateAnnounce
	if err := DecodePayload(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.YMinus) != 2 || out.YMinus[0][1] != 0.2 {
		t.Errorf("round trip = %+v", out)
	}

	up := PolicyUpload{Cache: []bool{true, false}, Routing: [][]float64{{1, 0}}}
	data, err = EncodePayload(up)
	if err != nil {
		t.Fatal(err)
	}
	var upOut PolicyUpload
	if err := DecodePayload(data, &upOut); err != nil {
		t.Fatal(err)
	}
	if !upOut.Cache[0] || upOut.Routing[0][0] != 1 {
		t.Errorf("round trip = %+v", upOut)
	}

	if err := DecodePayload([]byte("garbage"), &upOut); err == nil {
		t.Error("garbage payload: want error")
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgPhaseStart.String() != "phase-start" || MsgPolicyUpload.String() != "policy-upload" ||
		MsgDone.String() != "done" {
		t.Error("MsgType.String mismatch")
	}
	if MsgType(99).String() != "MsgType(99)" {
		t.Error("unknown MsgType should format numerically")
	}
}

func TestHubSendRecv(t *testing.T) {
	ctx := testCtx(t)
	hub := NewHub()
	a, err := hub.Register("a", 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hub.Register("b", 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "a" {
		t.Errorf("Name = %q", a.Name())
	}
	msg := Message{Type: MsgPhaseStart, Sweep: 2, Phase: 1, Payload: []byte("x")}
	if err := a.Send(ctx, "b", msg); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "a" || got.To != "b" || got.Sweep != 2 || got.Type != MsgPhaseStart {
		t.Errorf("received %+v", got)
	}
}

func TestHubErrors(t *testing.T) {
	ctx := testCtx(t)
	hub := NewHub()
	if _, err := hub.Register("", 1); err == nil {
		t.Error("empty name: want error")
	}
	if _, err := hub.Register("a", -1); err == nil {
		t.Error("negative buffer: want error")
	}
	a, err := hub.Register("a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hub.Register("a", 1); err == nil {
		t.Error("duplicate name: want error")
	}
	if err := a.Send(ctx, "ghost", Message{Type: MsgDone}); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("send to unknown peer: %v, want ErrUnknownPeer", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := a.Send(ctx, "a", Message{Type: MsgDone}); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v, want ErrClosed", err)
	}
	if _, err := a.Recv(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("recv after close: %v, want ErrClosed", err)
	}
	// A closed endpoint's name is free again.
	if _, err := hub.Register("a", 1); err != nil {
		t.Errorf("re-register after close: %v", err)
	}
}

func TestHubRecvContextCancel(t *testing.T) {
	hub := NewHub()
	a, err := hub.Register("a", 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.Recv(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Recv = %v, want deadline exceeded", err)
	}
}

func TestHubSendToClosedPeer(t *testing.T) {
	ctx := testCtx(t)
	hub := NewHub()
	a, _ := hub.Register("a", 1)
	b, _ := hub.Register("b", 1)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Close unregisters b, so the send fails with ErrUnknownPeer (a send
	// that raced the close gets ErrClosed; see the next test). Both are
	// final to ReliableEndpoint, which is why a hub deployment runs
	// without it.
	if err := a.Send(ctx, "b", Message{Type: MsgDone}); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("send to closed peer: %v, want ErrUnknownPeer", err)
	}
}

// TestHubSendBlockedOnPeerClose: a send blocked on a peer's full inbox
// fails with ErrClosed when that peer closes, instead of waiting for its
// context.
func TestHubSendBlockedOnPeerClose(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	hub := NewHub()
	a, _ := hub.Register("a", 1)
	b, _ := hub.Register("b", 0)
	sent := make(chan error, 1)
	go func() { sent <- a.Send(ctx, "b", Message{Type: MsgDone}) }()
	time.Sleep(20 * time.Millisecond)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-sent; !errors.Is(err, ErrClosed) {
		t.Errorf("blocked send across peer close: %v, want ErrClosed", err)
	}
}

// TestPendingRecvFailsOnClose: Close wakes a Recv already blocked on an
// empty inbox with ErrClosed, on both transports, as the Endpoint contract
// promises ("pending and future Recv calls fail").
func TestPendingRecvFailsOnClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) Endpoint
	}{
		{"hub", func(t *testing.T) Endpoint {
			ep, err := NewHub().Register("a", 1)
			if err != nil {
				t.Fatal(err)
			}
			return ep
		}},
		{"tcp", func(t *testing.T) Endpoint {
			ep, err := NewTCPEndpoint("a", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			return ep
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ep := tc.open(t)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			got := make(chan error, 1)
			go func() {
				_, err := ep.Recv(ctx)
				got <- err
			}()
			time.Sleep(20 * time.Millisecond)
			if err := ep.Close(); err != nil {
				t.Fatal(err)
			}
			if err := <-got; !errors.Is(err, ErrClosed) {
				t.Errorf("pending Recv across Close: %v, want ErrClosed", err)
			}
		})
	}
}

func TestHubConcurrentSenders(t *testing.T) {
	ctx := testCtx(t)
	hub := NewHub()
	sink, err := hub.Register("sink", 256)
	if err != nil {
		t.Fatal(err)
	}
	const senders, each = 8, 16
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, err := hub.Register(fmt.Sprintf("s%d", s), 1)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := ep.Send(ctx, "sink", Message{Type: MsgPolicyUpload, Sweep: i}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < senders*each; i++ {
		if _, err := sink.Recv(ctx); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
}

func TestCountingEndpoint(t *testing.T) {
	ctx := testCtx(t)
	hub := NewHub()
	rawA, _ := hub.Register("a", 4)
	rawB, _ := hub.Register("b", 4)
	a := NewCountingEndpoint(rawA)
	b := NewCountingEndpoint(rawB)
	if a.Name() != "a" {
		t.Errorf("Name = %q", a.Name())
	}
	msg := Message{Type: MsgPolicyUpload, Payload: []byte("12345")}
	if err := a.Send(ctx, "b", msg); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, "b", msg); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.SentMessages != 2 || sa.SentBytes != 10 {
		t.Errorf("sender stats = %+v", sa)
	}
	if sb.RecvMessages != 1 || sb.RecvBytes != 5 {
		t.Errorf("receiver stats = %+v", sb)
	}
	// Failed sends are not counted.
	if err := a.Send(ctx, "ghost", msg); err == nil {
		t.Fatal("send to ghost should fail")
	}
	if got := a.Stats().SentMessages; got != 2 {
		t.Errorf("failed send counted: %d", got)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultyEndpointDropsAll(t *testing.T) {
	ctx := testCtx(t)
	hub := NewHub()
	a, _ := hub.Register("a", 1)
	b, _ := hub.Register("b", 8)
	faulty, err := NewFaultyEndpoint(a, FaultConfig{DropProb: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := faulty.Send(ctx, "b", Message{Type: MsgDone}); err != nil {
			t.Fatal(err)
		}
	}
	shortCtx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := b.Recv(shortCtx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("message leaked through full drop: %v", err)
	}
}

func TestFaultyEndpointDuplicates(t *testing.T) {
	ctx := testCtx(t)
	hub := NewHub()
	a, _ := hub.Register("a", 1)
	b, _ := hub.Register("b", 8)
	faulty, err := NewFaultyEndpoint(a, FaultConfig{DupProb: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := faulty.Send(ctx, "b", Message{Type: MsgDone}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := b.Recv(ctx); err != nil {
			t.Fatalf("expected duplicated delivery, recv %d failed: %v", i, err)
		}
	}
	if faulty.Name() != "a" {
		t.Errorf("Name = %q", faulty.Name())
	}
	if err := faulty.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultyEndpointDelay(t *testing.T) {
	ctx := testCtx(t)
	hub := NewHub()
	a, _ := hub.Register("a", 1)
	b, _ := hub.Register("b", 8)
	faulty, err := NewFaultyEndpoint(a, FaultConfig{MaxDelay: 5 * time.Millisecond, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := faulty.Send(ctx, "b", Message{Type: MsgDone}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestFaultConfigValidation(t *testing.T) {
	bad := []FaultConfig{
		{DropProb: -0.1},
		{DropProb: 1.1},
		{DupProb: 2},
		{MaxDelay: -time.Second},
	}
	hub := NewHub()
	a, _ := hub.Register("a", 1)
	for i, cfg := range bad {
		if _, err := NewFaultyEndpoint(a, cfg); err == nil {
			t.Errorf("case %d: want error for %+v", i, cfg)
		}
	}
}

func TestTCPSendRecv(t *testing.T) {
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
	defer b.Close()
	a.AddPeer("b", b.Addr())
	b.AddPeer("a", a.Addr())

	payload, err := EncodePayload(PolicyUpload{Cache: []bool{true}, Routing: [][]float64{{0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, "b", Message{Type: MsgPolicyUpload, Sweep: 3, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "a" || got.Sweep != 3 || got.Type != MsgPolicyUpload {
		t.Errorf("received %+v", got)
	}
	var up PolicyUpload
	if err := DecodePayload(got.Payload, &up); err != nil {
		t.Fatal(err)
	}
	if !up.Cache[0] || up.Routing[0][0] != 0.5 {
		t.Errorf("payload = %+v", up)
	}

	// Reply over the reverse direction.
	if err := b.Send(ctx, "a", Message{Type: MsgDone}); err != nil {
		t.Fatal(err)
	}
	if got, err := a.Recv(ctx); err != nil || got.Type != MsgDone {
		t.Fatalf("reverse recv = %+v, %v", got, err)
	}
}

func TestTCPManyMessagesBothWays(t *testing.T) {
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
	defer b.Close()
	a.AddPeer("b", b.Addr())
	b.AddPeer("a", a.Addr())

	const rounds = 50
	for i := 0; i < rounds; i++ {
		if err := a.Send(ctx, "b", Message{Type: MsgPhaseStart, Sweep: i}); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Sweep != i {
			t.Fatalf("out of order: got sweep %d, want %d", got.Sweep, i)
		}
		if err := b.Send(ctx, "a", Message{Type: MsgPolicyUpload, Sweep: i}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Recv(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPErrors(t *testing.T) {
	ctx := testCtx(t)
	if _, err := NewTCPEndpoint("", "127.0.0.1:0"); err == nil {
		t.Error("empty name: want error")
	}
	if _, err := NewTCPEndpoint("a", "256.0.0.1:0"); err == nil {
		t.Error("bad address: want error")
	}
	a, err := NewTCPEndpoint("a", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(ctx, "ghost", Message{Type: MsgDone}); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("unknown peer: %v", err)
	}
	a.AddPeer("dead", "127.0.0.1:1") // nothing listens there
	if err := a.Send(ctx, "dead", Message{Type: MsgDone}); err == nil {
		t.Error("dial to dead peer: want error")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if err := a.Send(ctx, "dead", Message{Type: MsgDone}); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
	if _, err := a.Recv(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("recv after close: %v", err)
	}
}

func TestTCPPeerRestart(t *testing.T) {
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
	addr := b.Addr()
	a.AddPeer("b", addr)
	if err := a.Send(ctx, "b", Message{Type: MsgDone}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(ctx); err != nil {
		t.Fatal(err)
	}
	// Restart b on the same address; a's cached connection is now stale and
	// the send path must redial.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b2, err := NewTCPEndpoint("b", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	// A write into the stale cached connection can succeed locally before
	// the RST arrives (the message is silently lost); the next write then
	// errors and triggers the redial. Retry send-then-receive until the
	// restarted peer actually gets a message — the same at-most-once
	// semantics the BS protocol is built to tolerate.
	received := false
	for attempt := 0; attempt < 50 && !received; attempt++ {
		if err := a.Send(ctx, "b", Message{Type: MsgDone}); err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		shortCtx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
		if _, err := b2.Recv(shortCtx); err == nil {
			received = true
		}
		cancel()
	}
	if !received {
		t.Fatal("restarted peer never received a message")
	}
}

func TestFrameSizeLimit(t *testing.T) {
	huge := Message{Type: MsgPolicyUpload, Payload: make([]byte, maxFrameSize+1)}
	if _, err := encodeFrame(huge); err == nil {
		t.Error("oversized frame: want error")
	}
}

func TestReadFrameRejectsZeroType(t *testing.T) {
	frame, err := encodeFrame(Message{Type: MsgDone})
	if err != nil {
		t.Fatal(err)
	}
	// Valid frame decodes.
	if _, err := readFrame(bytesReader(frame)); err != nil {
		t.Fatal(err)
	}
	// Zero-type message is rejected.
	bad, err := encodeFrame(Message{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(bytesReader(bad)); err == nil {
		t.Error("zero-type frame: want error")
	}
}

func bytesReader(b []byte) *sliceReader { return &sliceReader{b: b} }

type sliceReader struct {
	b   []byte
	off int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, errors.New("EOF")
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}
