// Package locksrc holds deliberate send-under-mutex violations and the
// release-then-send forms the lockedsend analyzer approves. The edgelint
// driver skips everything under internal/lint/fixtures.
package locksrc

import (
	"context"
	"sync"

	"edgecache/internal/transport"
)

// Node mimics a protocol participant guarding sequence state with a mutex.
type Node struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	seq int
	ep  transport.Endpoint
}

// BadDeferred holds the mutex across the blocking Send via defer — the
// classic shape the analyzer exists for.
func (n *Node) BadDeferred(ctx context.Context, m transport.Message) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seq++
	return n.ep.Send(ctx, "peer", m) // want `Endpoint\.Send while n\.mu is held`
}

// BadReliable shows the concrete-type case: ReliableEndpoint implements
// Endpoint, and its Send can sleep through whole backoff windows.
func BadReliable(ctx context.Context, mu *sync.Mutex, re *transport.ReliableEndpoint, m transport.Message) error {
	mu.Lock()
	defer mu.Unlock()
	return re.Send(ctx, "peer", m) // want `ReliableEndpoint\.Send while mu is held`
}

// BadReadLocked proves read locks count too: a blocked Recv under RLock
// still stalls every writer.
func (n *Node) BadReadLocked(ctx context.Context) (transport.Message, error) {
	n.rw.RLock()
	defer n.rw.RUnlock()
	return n.ep.Recv(ctx) // want `Endpoint\.Recv while n\.rw is held`
}

// GoodReleaseFirst is the approved shape (the one ReliableEndpoint.Send
// itself uses): mutate state under the lock, release, then block.
func (n *Node) GoodReleaseFirst(ctx context.Context, m transport.Message) error {
	n.mu.Lock()
	n.seq++
	m.Sweep = n.seq
	n.mu.Unlock()
	return n.ep.Send(ctx, "peer", m)
}

// GoodGoroutine may hold the lock while spawning: the goroutine body runs
// with its own lock state.
func (n *Node) GoodGoroutine(ctx context.Context, m transport.Message) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seq++
	go func() {
		_ = n.ep.Send(ctx, "peer", m)
	}()
}
