package main

import (
	"os"
	"path/filepath"
	"testing"
)

// smallArgs shrinks the scenario so a full run stays fast in unit tests.
func smallArgs(extra ...string) []string {
	base := []string{
		"-groups", "8", "-links", "12", "-videos", "12",
		"-cache", "4", "-bandwidth", "300",
	}
	return append(base, extra...)
}

func TestRunBasic(t *testing.T) {
	if err := run(smallArgs()); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithPrivacyAndCompare(t *testing.T) {
	if err := run(smallArgs("-epsilon", "0.5", "-compare")); err != nil {
		t.Fatal(err)
	}
}

func TestRunDistributed(t *testing.T) {
	if err := run(smallArgs("-distributed")); err != nil {
		t.Fatal(err)
	}
}

func TestRunChaos(t *testing.T) {
	args := smallArgs("-chaos", "seed=3,dup=0.5,crash=1@1+2", "-phase-timeout", "500ms")
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if err := run(smallArgs("-chaos", "drop=oops")); err == nil {
		t.Error("bad chaos spec: want error")
	}
	if err := run(smallArgs("-chaos", "crash=99@1")); err == nil {
		t.Error("out-of-range chaos target: want error")
	}
}

func TestRunWithRestarts(t *testing.T) {
	if err := run(smallArgs("-restarts", "2")); err != nil {
		t.Fatal(err)
	}
}

func TestRunEngineJacobi(t *testing.T) {
	if err := run(smallArgs("-engine", "jacobi")); err != nil {
		t.Fatal(err)
	}
	if err := run(smallArgs("-jacobi")); err == nil {
		t.Error("-jacobi: want unknown-flag error")
	}
}

func TestRunMultiRegion(t *testing.T) {
	if err := run(smallArgs("-regions", "2", "-epsilon", "0.5")); err != nil {
		t.Fatal(err)
	}
}

func TestRunValidateFlag(t *testing.T) {
	if err := run(smallArgs("-validate")); err != nil {
		t.Fatal(err)
	}
}

func TestRunSaveAndLoad(t *testing.T) {
	dir := t.TempDir()
	instPath := dir + "/inst.json"
	solPath := dir + "/sol.json"
	if err := run(smallArgs("-save-instance", instPath, "-save-solution", solPath)); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-load-instance", instPath}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-load-instance", dir + "/missing.json"}); err == nil {
		t.Error("missing file: want error")
	}
}

func TestRunProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	tr := filepath.Join(dir, "trace.out")
	if err := run(smallArgs("-cpuprofile", cpu, "-memprofile", mem, "-trace", tr)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem, tr} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s missing: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
	if err := run(smallArgs("-cpuprofile", filepath.Join(dir, "no", "dir", "cpu"))); err == nil {
		t.Error("unwritable profile path: want error")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-badflag"}); err == nil {
		t.Error("bad flag: want error")
	}
	if err := run([]string{"-sbss", "0"}); err == nil {
		t.Error("zero SBSs: want error")
	}
	if err := run(smallArgs("-links", "1000")); err == nil {
		t.Error("too many links: want error")
	}
	if err := run(smallArgs("-regions", "9")); err == nil {
		t.Error("more regions than SBSs: want error")
	}
}
