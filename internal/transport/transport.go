// Package transport carries the messages of the distributed protocol
// between the BS coordinator and the SBS agents.
//
// Two implementations are provided: an in-memory hub (tests, benchmarks,
// single-process simulations) and a TCP transport with checksummed binary
// frames (the multi-operator deployment story of the paper, where SBSs
// belong to different companies and only exchange protocol messages). A
// fault-injecting wrapper simulates lossy links for the failure tests.
//
// The protocol itself (message types and payloads) is defined here so both
// sides and both transports share one wire format: the fixed-layout frame
// and sparse payload bodies of wire.go.
package transport

import (
	"context"
	"errors"
	"fmt"
)

// MsgType enumerates the protocol messages. Values start at 1 so a zero
// type byte is detectably invalid.
type MsgType uint8

// Protocol message types.
const (
	// MsgPhaseStart is sent by the BS to one SBS at its phase of a sweep;
	// the payload is an AggregateAnnounce.
	MsgPhaseStart MsgType = iota + 1
	// MsgPolicyUpload is the SBS's reply; the payload is a PolicyUpload.
	MsgPolicyUpload
	// MsgDone tells every SBS the run converged and agents may exit.
	MsgDone
	// MsgStateSync is broadcast by a BS that resumed from a checkpoint:
	// the header's Sweep and Phase carry the resume point, and the payload
	// is empty. The SBS drops announces older than that point and its
	// reply cache; it needs no policy, because its solve depends only on
	// the announced aggregate.
	MsgStateSync
	// MsgStateAck is the SBS's acknowledgement of a MsgStateSync (empty
	// payload; the sync point is echoed in the header).
	MsgStateAck
)

// String names the message type.
func (m MsgType) String() string {
	switch m {
	case MsgPhaseStart:
		return "phase-start"
	case MsgPolicyUpload:
		return "policy-upload"
	case MsgDone:
		return "done"
	case MsgStateSync:
		return "state-sync"
	case MsgStateAck:
		return "state-ack"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(m))
	}
}

// Message is one protocol datagram.
type Message struct {
	Type  MsgType
	From  string
	To    string
	Sweep int
	Phase int
	// Payload is the encoded body (EncodePayload of an AggregateAnnounce
	// or PolicyUpload; empty for the other message types).
	Payload []byte
}

// AggregateAnnounce is the BS→SBS body: the aggregate routing of every
// other SBS, y_{-n} (eq. 25). The receiving SBS cannot recover any single
// peer's policy from it, which is the privacy premise of §III; LPPM (§IV)
// additionally protects the per-SBS uploads this aggregate is built from.
type AggregateAnnounce struct {
	YMinus [][]float64
}

// PolicyUpload is the SBS→BS body: the (possibly LPPM-perturbed) caching
// and routing decision of one SBS for one phase.
type PolicyUpload struct {
	Cache   []bool
	Routing [][]float64
}

// Endpoint is one node's connection to the network. Implementations must
// be safe for one concurrent sender and one concurrent receiver.
type Endpoint interface {
	// Send delivers the message to the named peer. It fails if the peer is
	// unknown or the endpoint is closed; delivery is at-most-once (the
	// faulty wrapper can drop or duplicate).
	Send(ctx context.Context, to string, m Message) error
	// Recv blocks for the next inbound message.
	Recv(ctx context.Context) (Message, error)
	// Name returns the endpoint's registered name.
	Name() string
	// Close releases resources; pending and future Recv calls fail.
	Close() error
}

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrUnknownPeer is returned when sending to an unregistered name.
var ErrUnknownPeer = errors.New("transport: unknown peer")
