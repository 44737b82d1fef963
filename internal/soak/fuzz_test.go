package soak

import (
	"slices"
	"sort"
	"testing"
)

// FuzzParseRepro hardens the repro-file parser edgesim replays from disk:
// no input may panic it, and any file it accepts must survive a
// String/ParseRepro round trip with the same invariants (sorted), episode,
// seed, spec and proc-spec. Detail lines travel as comments and are not
// compared. The committed corpus under testdata/fuzz holds a real
// in-process repro, a cluster repro with a proc-spec, an unknown key and a
// bad int.
func FuzzParseRepro(f *testing.F) {
	f.Fuzz(func(t *testing.T, data string) {
		orig, err := ParseRepro(data)
		if err != nil {
			return
		}
		rendered := orig.String()
		again, err := ParseRepro(rendered)
		if err != nil {
			t.Fatalf("String() of accepted repro does not re-parse:\n  input:    %q\n  rendered: %q\n  error:    %v", data, rendered, err)
		}
		// strings.Fields returns an empty non-nil slice for a blank
		// invariants line, so compare by content, not with DeepEqual.
		inv := append([]string(nil), orig.Invariants...)
		sort.Strings(inv)
		if !slices.Equal(inv, again.Invariants) {
			t.Errorf("invariants: %q -> %q (rendered %q)", inv, again.Invariants, rendered)
		}
		if orig.Episode != again.Episode || orig.Seed != again.Seed {
			t.Errorf("episode/seed: (%d, %d) -> (%d, %d)", orig.Episode, orig.Seed, again.Episode, again.Seed)
		}
		if orig.Spec != again.Spec || orig.ProcSpec != again.ProcSpec {
			t.Errorf("spec/proc-spec: (%q, %q) -> (%q, %q)", orig.Spec, orig.ProcSpec, again.Spec, again.ProcSpec)
		}
	})
}
