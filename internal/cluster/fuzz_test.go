package cluster

import (
	"bytes"
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
