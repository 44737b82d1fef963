package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
)

// TCPEndpoint is an Endpoint over TCP carrying the frames of wire.go.
// Each endpoint listens on one address; outbound connections are dialed
// lazily per peer and kept open. Peers are registered with AddPeer.
type TCPEndpoint struct {
	name  string
	ln    net.Listener
	inbox chan Message

	mu      sync.Mutex
	closed  bool
	peers   map[string]string
	conns   map[string]*tcpConn
	inbound map[net.Conn]struct{}
	done    chan struct{} // closed by Close; wakes a pending Recv

	wg sync.WaitGroup
}

var _ Endpoint = (*TCPEndpoint)(nil)

// tcpConn serializes writes to one outbound connection.
type tcpConn struct {
	mu   sync.Mutex
	conn net.Conn
}

// NewTCPEndpoint listens on listenAddr (use "127.0.0.1:0" for an ephemeral
// port) and starts accepting inbound frames.
func NewTCPEndpoint(name, listenAddr string) (*TCPEndpoint, error) {
	if name == "" {
		return nil, fmt.Errorf("transport: endpoint name must be non-empty")
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	e := &TCPEndpoint{
		name:    name,
		ln:      ln,
		inbox:   make(chan Message, 64),
		peers:   make(map[string]string),
		conns:   make(map[string]*tcpConn),
		inbound: make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// Name implements Endpoint.
func (e *TCPEndpoint) Name() string { return e.name }

// Addr returns the actual listening address, e.g. to distribute to peers
// after an ephemeral-port bind.
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// AddPeer registers the address of a named peer.
func (e *TCPEndpoint) AddPeer(name, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.peers[name] = addr
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.inbound[conn] = struct{}{}
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

func (e *TCPEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer func() {
		conn.Close()
		e.mu.Lock()
		delete(e.inbound, conn)
		e.mu.Unlock()
	}()
	for {
		msg, err := readFrame(conn)
		if err != nil {
			return
		}
		e.mu.Lock()
		closed := e.closed
		e.mu.Unlock()
		if closed {
			return
		}
		select {
		case e.inbox <- msg:
		default:
			// Inbox overflow: drop the frame. The protocol tolerates loss
			// (the BS re-announces each phase; see the failure tests).
		}
	}
}

// Send implements Endpoint with a single attempt: it writes the frame on
// the cached connection to the peer, dialing one when there is none. A
// failed write drops the connection and returns the error, so the next
// Send dials afresh; riding out a peer restart is ReliableEndpoint's job,
// whose retries are those next Sends. A successful write is never
// repeated, so delivery stays at-most-once.
func (e *TCPEndpoint) Send(ctx context.Context, to string, m Message) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	addr, ok := e.peers[to]
	e.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	m.From = e.name
	m.To = to

	frame, err := encodeFrame(m)
	if err != nil {
		return err
	}
	tc, err := e.connTo(ctx, to, addr)
	if err != nil {
		return err
	}
	tc.mu.Lock()
	_, werr := tc.conn.Write(frame)
	tc.mu.Unlock()
	if werr == nil {
		return nil
	}
	e.dropConn(to, tc)
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return fmt.Errorf("transport: send to %q: %w", to, werr)
}

// connTo returns the cached connection to a peer, dialing one when absent.
func (e *TCPEndpoint) connTo(ctx context.Context, name, addr string) (*tcpConn, error) {
	e.mu.Lock()
	if tc, ok := e.conns[name]; ok {
		e.mu.Unlock()
		return tc, nil
	}
	e.mu.Unlock()

	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %q (%s): %w", name, addr, err)
	}
	tc := &tcpConn{conn: conn}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		conn.Close()
		return nil, ErrClosed
	}
	if old, ok := e.conns[name]; ok {
		// Lost a dial race; keep the existing connection.
		e.mu.Unlock()
		conn.Close()
		return old, nil
	}
	e.conns[name] = tc
	e.mu.Unlock()
	return tc, nil
}

func (e *TCPEndpoint) dropConn(name string, tc *tcpConn) {
	e.mu.Lock()
	if e.conns[name] == tc {
		delete(e.conns, name)
	}
	e.mu.Unlock()
	tc.conn.Close()
}

// Recv implements Endpoint.
func (e *TCPEndpoint) Recv(ctx context.Context) (Message, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return Message{}, ErrClosed
	}
	e.mu.Unlock()
	select {
	case m := <-e.inbox:
		return m, nil
	case <-e.done:
		return Message{}, ErrClosed
	case <-ctx.Done():
		return Message{}, ctx.Err()
	}
}

// Close implements Endpoint: fails pending Recv calls, stops the listener,
// closes all connections and waits for the reader goroutines to exit.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.done)
	conns := e.conns
	e.conns = make(map[string]*tcpConn)
	inbound := make([]net.Conn, 0, len(e.inbound))
	for c := range e.inbound {
		inbound = append(inbound, c)
	}
	e.mu.Unlock()

	err := e.ln.Close()
	for _, tc := range conns {
		tc.conn.Close()
	}
	// Inbound connections must be closed too: their read loops would
	// otherwise block until the remote side closes, and Close would
	// deadlock waiting for them (two endpoints closing in sequence would
	// wait on each other).
	for _, c := range inbound {
		c.Close()
	}
	e.wg.Wait()
	return err
}
