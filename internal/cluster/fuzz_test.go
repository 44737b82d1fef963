package cluster

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzControlLine hardens both directions of the supervisor-agent control
// plane: the agent's stdout line protocol (parseLine) and the supervisor's
// stdin peer list (readPeerList). No line may panic either parser. The
// ADDR and HB lines the agent's reporter prints must parse back to the
// address, sweep and phase it printed, and an accepted peer list must
// survive encodePeerList unchanged.
func FuzzControlLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string, sweep, phase int) {
		parseLine(line)
		if pl, err := readPeerList([]byte(line)); err == nil {
			enc, err := encodePeerList(pl)
			if err != nil {
				t.Fatalf("accepted peer list does not encode: %v", err)
			}
			again, err := readPeerList(enc)
			if err != nil {
				t.Fatalf("encoded peer list %q does not decode: %v", enc, err)
			}
			if !reflect.DeepEqual(pl, again) {
				t.Errorf("peer list round trip: %+v -> %+v", pl, again)
			}
		}

		var out bytes.Buffer
		rep := newReporter(&out)
		if fields := strings.Fields(line); len(fields) > 0 {
			rep.addr(fields[0])
			kind, _, _, addr, ok := parseLine(strings.TrimSuffix(out.String(), "\n"))
			if !ok || kind != lineAddr || addr != fields[0] {
				t.Errorf("ADDR %q parsed back as (%q, %q, %v)", fields[0], kind, addr, ok)
			}
			out.Reset()
		}
		rep.sweep, rep.phase = sweep, phase
		rep.beat()
		kind, s, p, _, ok := parseLine(strings.TrimSuffix(out.String(), "\n"))
		if !ok || kind != lineHB || s != sweep || p != phase {
			t.Errorf("HB %d %d parsed back as (%q, %d, %d, %v)", sweep, phase, kind, s, p, ok)
		}
	})
}

// FuzzResultFile feeds arbitrary bytes to decodeResult, the parser behind
// ReadResultFile (the supervisor reads result.json from a child process).
// It must never panic. A result it accepts, re-encoded exactly as
// writeResultFile writes it, must decode to the same result with every
// History entry and CostTotal equal in Float64bits: the acceptance tests
// compare cluster trajectories against the in-process reference with
// float64 equality. Run longer sessions with
// `go test -run '^$' -fuzz=FuzzResultFile ./internal/cluster`.
func FuzzResultFile(f *testing.F) {
	f.Add([]byte(`{"converged":true,"sweeps":4,"cost_total":123.0625,"history":[3,2,1.5,1.25],"misses":2}`))
	f.Add([]byte(`{"converged":false,"history":[-0,5e-324,1.7976931348623157e308,0.1]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := decodeResult(data)
		if err != nil {
			return
		}
		enc, err := encodeResult(res)
		if err != nil {
			t.Fatalf("encodeResult of an accepted result: %v", err)
		}
		back, err := decodeResult(enc)
		if err != nil {
			t.Fatalf("decodeResult of encodeResult's output: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(back, res) {
			t.Fatalf("round trip changed the result:\n got %+v\nwant %+v", back, res)
		}
		if math.Float64bits(back.CostTotal) != math.Float64bits(res.CostTotal) {
			t.Errorf("cost_total %v came back as %v", res.CostTotal, back.CostTotal)
		}
		for i, v := range res.History {
			if math.Float64bits(back.History[i]) != math.Float64bits(v) {
				t.Errorf("history[%d] = %v came back as %v", i, v, back.History[i])
			}
		}
	})
}
