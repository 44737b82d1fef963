package transport

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Hub is an in-memory network: endpoints register by name and exchange
// messages through buffered channels. It is the default transport for
// tests, benchmarks and single-process simulations.
type Hub struct {
	mu        sync.Mutex
	endpoints map[string]*InmemEndpoint
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{endpoints: make(map[string]*InmemEndpoint)}
}

// Register creates an endpoint with the given name and inbound buffer.
// Registering a duplicate name fails.
func (h *Hub) Register(name string, buffer int) (*InmemEndpoint, error) {
	if name == "" {
		return nil, fmt.Errorf("transport: endpoint name must be non-empty")
	}
	if buffer < 0 {
		return nil, fmt.Errorf("transport: buffer must be non-negative, got %d", buffer)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.endpoints[name]; ok {
		return nil, fmt.Errorf("transport: endpoint %q already registered", name)
	}
	ep := &InmemEndpoint{hub: h, name: name, inbox: make(chan Message, buffer), done: make(chan struct{})}
	h.endpoints[name] = ep
	return ep, nil
}

// lookup returns the endpoint registered under name.
func (h *Hub) lookup(name string) (*InmemEndpoint, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ep, ok := h.endpoints[name]
	return ep, ok
}

// remove unregisters a closed endpoint.
func (h *Hub) remove(name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.endpoints, name)
}

// InmemEndpoint is a hub-attached endpoint.
type InmemEndpoint struct {
	hub  *Hub
	name string

	mu     sync.Mutex
	closed bool
	inbox  chan Message
	done   chan struct{} // closed by Close; wakes pending Recvs and deliveries
}

var _ Endpoint = (*InmemEndpoint)(nil)

// Name implements Endpoint.
func (e *InmemEndpoint) Name() string { return e.name }

// Send implements Endpoint.
func (e *InmemEndpoint) Send(ctx context.Context, to string, m Message) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	peer, ok := e.hub.lookup(to)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	m.From = e.name
	m.To = to
	return peer.deliver(ctx, m)
}

// deliver places a message in the inbox, respecting the context and the
// peer's closed state: a delivery blocked on a full inbox fails with
// ErrClosed once the peer closes.
func (e *InmemEndpoint) deliver(ctx context.Context, m Message) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return fmt.Errorf("%w: peer %q", ErrClosed, e.name)
	}
	select {
	case e.inbox <- m:
		return nil
	case <-e.done:
		return fmt.Errorf("%w: peer %q", ErrClosed, e.name)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Recv implements Endpoint.
func (e *InmemEndpoint) Recv(ctx context.Context) (Message, error) {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return Message{}, ErrClosed
	}
	select {
	case m := <-e.inbox:
		return m, nil
	case <-e.done:
		return Message{}, ErrClosed
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
}

// Close implements Endpoint. In-flight deliveries racing Close may be
// dropped, which mirrors a real socket teardown.
func (e *InmemEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	close(e.done)
	e.hub.remove(e.name)
	return nil
}

// FaultConfig describes the failure behaviour of a FaultyEndpoint.
type FaultConfig struct {
	// DropProb and DupProb are per-Send probabilities of silently dropping
	// or duplicating the message.
	DropProb, DupProb float64
	// ReorderProb is the per-Send probability of holding the message back
	// and delivering it after the next one (a deterministic adjacent swap,
	// unlike the emergent reordering of MaxDelay). A held message that is
	// never followed by another Send is flushed on Close.
	ReorderProb float64
	// MaxDelay, when positive, sleeps a uniform random duration up to this
	// bound before each delivery (reordering emerges from concurrency).
	MaxDelay time.Duration
	// Seed drives the fault randomness.
	Seed int64
}

// Validate checks probability ranges.
func (c FaultConfig) Validate() error {
	if !validProb(c.DropProb) || !validProb(c.DupProb) || !validProb(c.ReorderProb) {
		return fmt.Errorf("transport: fault probabilities must be in [0,1], got drop=%v dup=%v reorder=%v",
			c.DropProb, c.DupProb, c.ReorderProb)
	}
	if c.MaxDelay < 0 {
		return fmt.Errorf("transport: MaxDelay must be non-negative, got %v", c.MaxDelay)
	}
	return nil
}

// validProb reports whether p is a probability in [0, 1]; NaN is not.
func validProb(p float64) bool { return p >= 0 && p <= 1 }

// FaultyEndpoint wraps an endpoint with message dropping, duplication,
// reordering and delay on the send path. Receives pass through untouched.
type FaultyEndpoint struct {
	inner Endpoint
	cfg   FaultConfig

	mu   sync.Mutex
	rng  *rand.Rand
	held *heldMessage
}

// heldMessage is a send deferred by ReorderProb until the next Send.
type heldMessage struct {
	to string
	m  Message
}

var _ Endpoint = (*FaultyEndpoint)(nil)

// NewFaultyEndpoint wraps inner with the given fault model.
func NewFaultyEndpoint(inner Endpoint, cfg FaultConfig) (*FaultyEndpoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FaultyEndpoint{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Name implements Endpoint.
func (e *FaultyEndpoint) Name() string { return e.inner.Name() }

// Send implements Endpoint with fault injection.
func (e *FaultyEndpoint) Send(ctx context.Context, to string, m Message) error {
	e.mu.Lock()
	drop := e.rng.Float64() < e.cfg.DropProb
	dup := e.rng.Float64() < e.cfg.DupProb
	reorder := e.rng.Float64() < e.cfg.ReorderProb
	var delay time.Duration
	if e.cfg.MaxDelay > 0 {
		delay = time.Duration(e.rng.Int63n(int64(e.cfg.MaxDelay)))
	}
	if !drop && reorder && e.held == nil {
		// Hold this message back; it goes out right after the next Send.
		e.held = &heldMessage{to: to, m: m}
		e.mu.Unlock()
		return nil
	}
	released := e.held
	e.held = nil
	e.mu.Unlock()

	if drop {
		// The current message is lost, but a previously held one still
		// rides out (loss must not extend the reorder window).
		if released != nil {
			return e.inner.Send(ctx, released.to, released.m)
		}
		return nil
	}
	if delay > 0 {
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
	if err := e.inner.Send(ctx, to, m); err != nil {
		return err
	}
	if dup {
		if err := e.inner.Send(ctx, to, m); err != nil {
			return err
		}
	}
	if released != nil {
		return e.inner.Send(ctx, released.to, released.m)
	}
	return nil
}

// Recv implements Endpoint.
func (e *FaultyEndpoint) Recv(ctx context.Context) (Message, error) { return e.inner.Recv(ctx) }

// Close implements Endpoint, flushing a held reordered message so it is
// delayed, not silently lost.
func (e *FaultyEndpoint) Close() error {
	e.mu.Lock()
	released := e.held
	e.held = nil
	e.mu.Unlock()
	if released != nil {
		_ = e.inner.Send(context.Background(), released.to, released.m)
	}
	return e.inner.Close()
}
