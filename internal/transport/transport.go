// Package transport carries the messages of the distributed protocol
// between the BS coordinator and the SBS agents.
//
// Two implementations are provided: an in-memory hub (tests, benchmarks,
// single-process simulations) and a TCP transport with length-prefixed gob
// frames (the multi-operator deployment story of the paper, where SBSs
// belong to different companies and only exchange protocol messages). A
// fault-injecting wrapper simulates lossy links for the failure tests.
//
// The protocol itself (message types and payloads) is defined here so both
// sides and both transports share one wire format.
package transport

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
)

// MsgType enumerates the protocol messages. Values start at 1 so the gob
// zero value is detectably invalid.
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
	// the payload is a StateSync carrying the resume point and the
	// receiving SBS's own last BS-visible policy, so the agent rehydrates
	// its workspace instead of assuming iteration zero.
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
	// Seq is a per-sender sequence number stamped by ReliableEndpoint so
	// receivers can discard retry-induced duplicates. 0 means the sender
	// does not use sequencing and the message is never deduplicated.
	Seq uint64
	// Payload is the gob-encoded body (AggregateAnnounce or PolicyUpload).
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

// StateSync is the BS→SBS rehydration body sent after a coordinator
// resume: the protocol point the run continues from. It carries no policy
// — an SBS's solve depends only on the announced aggregate.
type StateSync struct {
	// Sweep and Phase are the resume point; announces strictly older are
	// pre-crash ghosts the SBS should ignore.
	Sweep int
	Phase int
}

// EncodePayload gob-encodes a payload body.
func EncodePayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("transport: encode payload: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePayload gob-decodes a payload body into out (a pointer). Inputs
// larger than the frame limit are rejected up front: the in-memory hub has
// no framing layer, so without this cap a hostile peer could hand the gob
// decoder an arbitrarily large allocation request.
func DecodePayload(data []byte, out any) error {
	if len(data) > maxFrameSize {
		return fmt.Errorf("transport: payload of %d bytes exceeds limit %d", len(data), maxFrameSize)
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(out); err != nil {
		return fmt.Errorf("transport: decode payload: %w", err)
	}
	return nil
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
