package soak

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestReproRoundTrip(t *testing.T) {
	in := Repro{
		Invariants: []string{"converged", "accounting"},
		Episode:    3,
		Seed:       3000010,
		Spec:       "seed=7,drop=0.1,crash=1@2,restart=1@4",
		Detail:     []string{"converged: did not converge in 40 sweeps"},
	}
	path := filepath.Join(t.TempDir(), "repro.txt")
	if err := in.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	out, err := ParseReproFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Detail lines travel as comments and invariants come back sorted;
	// everything else round-trips verbatim.
	want := in
	want.Detail = nil
	want.Invariants = []string{"accounting", "converged"}
	if !reflect.DeepEqual(out, want) {
		t.Errorf("round trip = %+v, want %+v", out, want)
	}
}

func TestReproStringIsCommentedAndReplayable(t *testing.T) {
	r := Repro{Invariants: []string{"injected"}, Seed: 1, Spec: "seed=1,crash=0@1,restart=0@2",
		Detail: []string{"injected: multi\nline detail"}}
	s := r.String()
	if !strings.Contains(s, "# replay: go run ./cmd/edgesim -soak -soak-repro") {
		t.Errorf("missing replay hint:\n%s", s)
	}
	for _, line := range strings.Split(strings.TrimSpace(s), "\n") {
		if !strings.HasPrefix(line, "#") && !strings.Contains(line, ":") {
			t.Errorf("line %q is neither comment nor key: value", line)
		}
	}
	// Multi-line detail must not escape the comment prefix.
	if strings.Contains(s, "\nline detail") && !strings.Contains(s, "# line detail") {
		t.Errorf("detail line leaked uncommented:\n%s", s)
	}
}

func TestReproParseRejectsCorruptSpec(t *testing.T) {
	_, err := ParseRepro("seed: 1\nspec: crash=9000@zzz\n")
	if err == nil {
		t.Fatal("want parse error for corrupt spec")
	}
	// The chaos parser's self-diagnosing error must surface, naming the
	// offending spec.
	if !strings.Contains(err.Error(), "crash=9000@zzz") {
		t.Errorf("error %q does not name the corrupt spec", err)
	}
}

func TestReproParseRejectsCorruptProcSpec(t *testing.T) {
	_, err := ParseRepro("proc-spec: kill=@@@\n")
	if err == nil || !strings.Contains(err.Error(), "proc-spec") {
		t.Fatalf("err = %v, want a proc-spec parse error", err)
	}
}

func TestReproParseRejectsUnknownKeyAndBadInt(t *testing.T) {
	if _, err := ParseRepro("wat: 1\n"); err == nil || !strings.Contains(err.Error(), `"wat"`) {
		t.Errorf("unknown key: err = %v", err)
	}
	// The episode scale is fixed, so scenario keys (sbss, groups, links,
	// videos, cache) are unknown.
	if _, err := ParseRepro("seed: 1\nsbss: 3\n"); err == nil || !strings.Contains(err.Error(), `"sbss"`) {
		t.Errorf("scenario key: err = %v", err)
	}
	if _, err := ParseRepro("episode: twelve\n"); err == nil || !strings.Contains(err.Error(), "episode") {
		t.Errorf("bad int: err = %v", err)
	}
	if _, err := ParseRepro("no separator here\n"); err == nil {
		t.Error("want error for a line without a colon")
	}
}
