package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListPrintsFullSuite(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	for _, name := range []string{"noalloc", "determinism", "floateq", "flataccess", "lockedsend", "privflow", "goleak", "atomicmix"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

// TestUnknownAnalyzerIsUsageError covers the argument errors that must
// exit 2 before anything is loaded: an unknown or repeated analyzer name
// and flags edgelint does not define.
func TestUnknownAnalyzerIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-analyzers", "nope", "./..."},
		{"-analyzers", "floateq,floateq", "./..."},
		{"-no-cache", "./..."},
		{"-cache-dir", "x", "./..."},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%q: exit %d, want 2; stderr: %s", args, code, errOut.String())
		}
	}
}

// TestRepoGatePasses runs the driver exactly as verify.sh does and
// requires a clean module.
func TestRepoGatePasses(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load is not short")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-C", "../..", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("edgelint found violations (exit %d):\n%s%s", code, out.String(), errOut.String())
	}
}

// TestGateFailsOnUnnoisedSend is the privacy acceptance criterion: a
// transport send of //edgecache:private data with no LPPM call in the
// path must fail the gate with exit 1.
func TestGateFailsOnUnnoisedSend(t *testing.T) {
	tmp := t.TempDir()
	writeTestFile(t, filepath.Join(tmp, "go.mod"), "module edgecache\n\ngo 1.22\n")
	writeTestFile(t, filepath.Join(tmp, "internal/transport/transport.go"), `// Package transport is the minimal wire layer the sink rules key on.
package transport

// Endpoint delivers payloads to peers.
type Endpoint interface {
	// Send delivers v to the named peer.
	Send(to string, v []float64) error
}
`)
	writeTestFile(t, filepath.Join(tmp, "internal/sim/push.go"), `package sim

import "edgecache/internal/transport"

// Demand returns the raw per-MU request counts.
//
//edgecache:private raw per-MU demand
func Demand() []float64 { return []float64{1} }

// Push uploads the demand without noising it first.
func Push(ep transport.Endpoint) error {
	return ep.Send("peer", Demand())
}
`)
	var out, errOut bytes.Buffer
	code := run([]string{"-C", tmp, "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1; out:\n%s%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"privflow", "transport send"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestGateFailsOnLeakedGoroutine proves the concurrency criterion: a
// joinless goroutine in a cluster package fails the gate with exit 1.
func TestGateFailsOnLeakedGoroutine(t *testing.T) {
	tmp := t.TempDir()
	writeTestFile(t, filepath.Join(tmp, "go.mod"), "module edgecache\n\ngo 1.22\n")
	writeTestFile(t, filepath.Join(tmp, "internal/cluster/leak.go"), `// Package cluster is in goleak's process-lifetime scope.
package cluster

// Watch polls forever with nothing able to stop it.
func Watch(f func()) {
	go func() {
		for {
			f()
		}
	}()
}
`)
	var out, errOut bytes.Buffer
	code := run([]string{"-C", tmp, "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1; out:\n%s%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"goleak", "no reachable join"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestFixIsIdempotent applies the floateq rewrite twice: the first run
// edits the file, the second must find nothing left to do and leave the
// bytes untouched.
func TestFixIsIdempotent(t *testing.T) {
	tmp := t.TempDir()
	srcPath := filepath.Join(tmp, "internal/core/x.go")
	writeTestFile(t, filepath.Join(tmp, "go.mod"), "module edgecache\n\ngo 1.22\n")
	writeTestFile(t, filepath.Join(tmp, "internal/floats/floats.go"), `// Package floats holds tolerance-based comparisons.
package floats

// Eq reports near-equality under an absolute tolerance.
func Eq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-9
}
`)
	writeTestFile(t, srcPath, `package core

import (
	"math"
)

// Same reports float equality the naive way.
func Same(a, b float64) bool {
	return math.Abs(a) == b
}
`)
	var out, errOut bytes.Buffer
	if code := run([]string{"-C", tmp, "-analyzers", "floateq", "-fix", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("first -fix run: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "applied 1 fix") {
		t.Fatalf("first -fix run applied nothing:\n%s", out.String())
	}
	fixed, err := os.ReadFile(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixed), "floats.Eq(") {
		t.Fatalf("rewrite missing from fixed source:\n%s", fixed)
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-C", tmp, "-analyzers", "floateq", "-fix", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("second -fix run: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if strings.Contains(out.String(), "applied") {
		t.Fatalf("second -fix run was not a no-op:\n%s", out.String())
	}
	again, err := os.ReadFile(srcPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fixed, again) {
		t.Fatalf("second -fix run changed bytes:\n--- first ---\n%s\n--- second ---\n%s", fixed, again)
	}
}

func writeTestFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
