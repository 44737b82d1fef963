package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgecache/internal/lint"
	"edgecache/internal/lint/linttest"
)

// TestAnalyzers runs each analyzer over its fixture package and matches
// the reported diagnostics against the fixtures' // want comments: one
// true-positive set and one annotated-clean set per analyzer.
func TestAnalyzers(t *testing.T) {
	cases := []struct {
		name      string
		analyzers string
		pattern   string
	}{
		{"noalloc", "noalloc", "./fixtures/noallocsrc"},
		{"determinism", "determinism", "./fixtures/determsrc"},
		{"floateq", "floateq", "./fixtures/floateqsrc"},
		{"flataccess", "flataccess", "./fixtures/flatsrc"},
		{"lockedsend", "lockedsend", "./fixtures/locksrc"},
		{"privflow", "privflow", "./fixtures/privflowsrc"},
		{"goleak", "goleak", "./fixtures/goleaksrc"},
		{"atomicmix", "atomicmix", "./fixtures/atomicsrc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			linttest.Check(t, ".", tc.analyzers, tc.pattern)
		})
	}
}

// TestRepoIsClean is the self-check the verify.sh gate relies on: the
// full suite over the whole module (fixtures skipped, as in the driver)
// must report nothing.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load is not short")
	}
	prog, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range prog.Run(lint.Analyzers(), lint.DefaultSkip) {
		t.Errorf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
}

// TestGateCatchesInjectedViolations demonstrates the acceptance criterion
// directly: dropping an allocating append into a //edgecache:noalloc
// function and a time.Now into internal/sim must fail the gate.
func TestGateCatchesInjectedViolations(t *testing.T) {
	tmp := t.TempDir()
	writeFile(t, filepath.Join(tmp, "go.mod"), "module edgecache\n\ngo 1.22\n")
	writeFile(t, filepath.Join(tmp, "internal/sim/sim.go"), `package sim

import "time"

// Hot pretends to be a zero-alloc hot path but grows its input.
//
//edgecache:noalloc
func Hot(xs []int, x int) []int { return append(xs, x) }

// Stamp reads the wall clock inside the deterministic simulation layer.
func Stamp() int64 { return time.Now().UnixNano() }
`)
	prog, err := lint.Load(tmp, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags := prog.Run(lint.Analyzers(), lint.DefaultSkip)
	assertDiag(t, diags, "noalloc", "append may allocate")
	assertDiag(t, diags, "determinism", "time.Now")
	if len(diags) != 2 {
		t.Errorf("want exactly 2 findings, got %d: %v", len(diags), diags)
	}
}

// TestDirectiveValidation covers the suppression machinery's failure
// modes: missing reason, unknown analyzer, and a stale suppression.
func TestDirectiveValidation(t *testing.T) {
	tmp := t.TempDir()
	writeFile(t, filepath.Join(tmp, "go.mod"), "module edgecache\n\ngo 1.22\n")
	writeFile(t, filepath.Join(tmp, "internal/core/x.go"), `package core

// Reasonless suppresses without saying why.
func Reasonless(a, b float64) bool {
	//edgecache:lint-ignore floateq
	return a == b
}

// Typo names an analyzer that does not exist.
func Typo(a, b float64) bool {
	return a == b //edgecache:lint-ignore floateqq looks right at a glance
}

// Stale suppresses a line with nothing to suppress.
func Stale(a, b int) bool {
	return a == b //edgecache:lint-ignore floateq ints compare exactly anyway
}

// StalePriv suppresses the dataflow analyzer where nothing flows.
func StalePriv() int {
	return 1 //edgecache:lint-ignore privflow nothing private on this line
}
`)
	prog, err := lint.Load(tmp, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags := prog.Run(lint.Analyzers(), lint.DefaultSkip)
	assertDiag(t, diags, "directive", "gives no reason")
	assertDiag(t, diags, "directive", `unknown analyzer "floateqq"`)
	assertDiag(t, diags, "directive", "unused lint-ignore floateq")
	assertDiag(t, diags, "directive", "unused lint-ignore privflow")
	// The malformed directive does not suppress, so Reasonless's comparison
	// still fires; Typo's misnamed directive leaves its comparison exposed
	// too.
	floatDiags := 0
	for _, d := range diags {
		if d.Analyzer == "floateq" {
			floatDiags++
		}
	}
	if floatDiags != 2 {
		t.Errorf("want 2 surviving floateq findings, got %d: %v", floatDiags, diags)
	}
}

func assertDiag(t *testing.T, diags []lint.Diagnostic, analyzer, substr string) {
	t.Helper()
	for _, d := range diags {
		if d.Analyzer == analyzer && strings.Contains(d.Message, substr) {
			return
		}
	}
	t.Errorf("no %s diagnostic containing %q in %v", analyzer, substr, diags)
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
