package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"edgecache/internal/core"
	"edgecache/internal/transport"
)

// announceTap records the payload of every announce the BS sends.
type announceTap struct {
	transport.Endpoint
	mu       sync.Mutex
	payloads [][]byte
}

func (e *announceTap) Send(ctx context.Context, to string, m transport.Message) error {
	if m.Type == transport.MsgPhaseStart {
		e.mu.Lock()
		e.payloads = append(e.payloads, m.Payload)
		e.mu.Unlock()
	}
	return e.Endpoint.Send(ctx, to, m)
}

// TestDistributedOverTCPWithLPPM: at the TCP benchmark's shape (N=10,
// U=F=60, 30% links, LPPM ε=0.1 and δ=0.5 per SBS, 12 sweeps), the BS and
// SBS agents over TCPEndpoint+ReliableEndpoint reproduce RunInmem with the
// same per-SBS noise seeds bit for bit and draw exactly as much noise.
// Every announce with k nonzero entries costs at most the 13-byte body
// header (kind, U, F, nnz) plus 12 bytes per entry.
func TestDistributedOverTCPWithLPPM(t *testing.T) {
	const seed = 99
	inst := randomInstanceLinked(rand.New(rand.NewSource(seed)), 10, 60, 60, 0.3)
	cfg := BSConfig{MaxSweeps: 12, Gamma: 1e-300}
	ctx := testCtx(t)
	privacy := func(noise []*core.NoiseSource) func(n int) *core.PrivacyConfig {
		return func(n int) *core.PrivacyConfig {
			noise[n] = core.NewNoiseSource(seed*1009 + int64(n))
			return &core.PrivacyConfig{Epsilon: 0.1, Delta: 0.5, Noise: noise[n]}
		}
	}

	tcpNoise := make([]*core.NoiseSource, inst.N)
	tcpPrivacy := privacy(tcpNoise)
	bsTCP, err := transport.NewTCPEndpoint("bs", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bsTCP.Close()
	bsRel, err := transport.NewReliableEndpoint(bsTCP, transport.RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	tap := &announceTap{Endpoint: bsRel}
	names := make([]string, inst.N)
	agents := make([]*SBSAgent, inst.N)
	for n := range names {
		names[n] = fmt.Sprintf("sbs-%d", n)
		ep, err := transport.NewTCPEndpoint(names[n], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		ep.AddPeer("bs", bsTCP.Addr())
		bsTCP.AddPeer(names[n], ep.Addr())
		rel, err := transport.NewReliableEndpoint(ep, transport.RetryPolicy{Seed: int64(n) + 1})
		if err != nil {
			t.Fatal(err)
		}
		if agents[n], err = NewSBSAgent(inst, n, core.DefaultSubproblemConfig(), tcpPrivacy(n), rel, "bs"); err != nil {
			t.Fatal(err)
		}
	}
	bs, err := NewBSAgent(inst, cfg, tap, names)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	agentErrs := make([]error, inst.N)
	for n, a := range agents {
		wg.Add(1)
		go func() {
			defer wg.Done()
			agentErrs[n] = a.Run(ctx)
		}()
	}
	got, err := bs.Run(ctx)
	wg.Wait() // MsgDone stops every agent
	if err != nil {
		t.Fatal(err)
	}
	for n, err := range agentErrs {
		if err != nil {
			t.Errorf("SBS %d: %v", n, err)
		}
	}

	inmemNoise := make([]*core.NoiseSource, inst.N)
	want, err := RunInmem(ctx, inst, cfg, core.DefaultSubproblemConfig(), privacy(inmemNoise))
	if err != nil {
		t.Fatal(err)
	}
	simBitEqual(t, got, want, "TCP+LPPM")
	for n := range tcpNoise {
		_, gotDraws := tcpNoise[n].Pos()
		_, wantDraws := inmemNoise[n].Pos()
		if gotDraws != wantDraws || gotDraws == 0 {
			t.Errorf("SBS %d drew %d noise values over TCP, %d in memory", n, gotDraws, wantDraws)
		}
	}

	if want := inst.N * got.Sweeps; len(tap.payloads) != want {
		t.Errorf("BS sent %d announces, want %d", len(tap.payloads), want)
	}
	for i, p := range tap.payloads {
		var ann transport.AggregateAnnounce
		if err := transport.DecodePayload(p, &ann); err != nil {
			t.Fatal(err)
		}
		k := 0
		for _, row := range ann.YMinus {
			for _, v := range row {
				if math.Float64bits(v) != 0 {
					k++
				}
			}
		}
		if limit := 13 + 12*k; len(p) > limit {
			t.Errorf("announce %d with %d nonzero entries is %d bytes, want at most %d", i, k, len(p), limit)
		}
	}
}
