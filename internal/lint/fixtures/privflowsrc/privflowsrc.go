// Package privflowsrc holds deliberate privacy-taint violations and the
// sanitized shapes the privflow analyzer approves. The edgelint driver
// skips everything under internal/lint/fixtures.
package privflowsrc

import (
	"context"
	"log"
	"math/rand"

	"edgecache/internal/dp"
	"edgecache/internal/model"
	"edgecache/internal/transport"
)

// Response mimics a per-BS best-response result carrying raw pre-LPPM
// routing shares.
type Response struct {
	Cost float64
	// Shares are the raw per-MU routing shares before any LPPM noise.
	//
	//edgecache:private raw pre-LPPM per-MU routing shares
	Shares []float64
}

// RawDemand mimics an accessor whose results reveal per-MU request counts.
//
//edgecache:private raw per-MU demand counts
func RawDemand() []float64 { return []float64{1, 2} }

// BadDirectSend ships raw shares over the wire: the taint survives the
// type switch and the appends inside transport.EncodePayload.
func BadDirectSend(ctx context.Context, ep transport.Endpoint, r *Response) error {
	payload, err := transport.EncodePayload(r.Shares)
	if err != nil {
		return err
	}
	return ep.Send(ctx, "peer", transport.Message{Payload: payload}) // want `private data reaches transport send`
}

// GoodSanitizedSend is the approved shape: every share passes the LPPM
// mechanism before egress, and the strong update leaves the slice clean.
func GoodSanitizedSend(ctx context.Context, ep transport.Endpoint, rng *rand.Rand, r *Response) error {
	noisy := make([]float64, len(r.Shares))
	for i := range noisy {
		v, err := dp.LPPMNoise(rng, r.Shares[i], 0.1, 4)
		if err != nil {
			return err
		}
		noisy[i] = v
	}
	payload, err := transport.EncodePayload(noisy)
	if err != nil {
		return err
	}
	return ep.Send(ctx, "peer", transport.Message{Payload: payload})
}

// GoodStrongUpdate reuses one variable: the sanitizer's result overwrites
// the raw value, so the later log is clean ("last writer wins").
func GoodStrongUpdate(rng *rand.Rand, r *Response) error {
	share := r.Shares[0]
	share, err := dp.LPPMNoise(rng, share, 0.1, 4)
	if err != nil {
		return err
	}
	log.Printf("noised share: %v", share)
	return nil
}

// BadTypeSwitch leaks through a type-switch binding: the clause variable
// carries the switched value's taint.
func BadTypeSwitch(r *Response) {
	var v any = r.Shares
	switch p := v.(type) {
	case []float64:
		log.Printf("shares: %v", p) // want `private data reaches log output`
	}
}

// BadLog leaks raw demand through the process log.
func BadLog() {
	log.Printf("demand: %v", RawDemand()) // want `private data reaches log output`
}

// BadCheckpoint builds a checkpoint from raw values: the write through
// ck's field taints the whole locally-built checkpoint (weak update).
func BadCheckpoint(sink model.CheckpointSink) error {
	ck := &model.Checkpoint{Mu: make([][]float64, 1)}
	ck.Mu[0] = RawDemand()
	return sink.Save(ck) // want `private data reaches checkpoint save`
}

// relay forwards its payload to the wire. The summary records that the
// payload parameter reaches a transport send, so tainted callers are
// flagged at their call site, not here.
func relay(ctx context.Context, ep transport.Endpoint, payload []byte) error {
	return ep.Send(ctx, "peer", transport.Message{Payload: payload})
}

// BadViaHelper reaches the sink one call deep.
func BadViaHelper(ctx context.Context, ep transport.Endpoint) error {
	payload, err := transport.EncodePayload(RawDemand())
	if err != nil {
		return err
	}
	return relay(ctx, ep, payload) // want `private data reaches transport send via relay`
}
