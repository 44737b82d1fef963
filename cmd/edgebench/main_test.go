package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"edgecache/internal/core"
	"edgecache/internal/model"
)

// smallWorkloads are the benchmark's workloads at N=4, U=20, F=20: the same
// code paths and checks, small enough for the tier-1 test run.
func smallWorkloads() []*workload {
	ws := workloads()
	for _, w := range ws {
		w.n, w.u, w.f = 4, 20, 20
	}
	return ws
}

func TestWorkloadsSmoke(t *testing.T) {
	b := &bench{seed: 99, seconds: 1e-3, minRuns: 1, tmpDir: t.TempDir(), log: io.Discard}
	for _, w := range smallWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			e2e := b.endToEnd(w)
			if e2e.Failed != 0 {
				t.Fatalf("end-to-end pass failed: %v", e2e.Errors)
			}
			for _, d := range endToEnd {
				if d.listed && e2e.Metrics[d.name] == nil {
					t.Errorf("end-to-end metric %s missing", d.name)
				}
			}
			traced := b.traced(w)
			if traced.Failed != 0 {
				t.Fatalf("traced pass failed: %v", traced.Errors)
			}
			for _, name := range perLayerListed {
				if traced.Metrics[name] == nil {
					t.Errorf("per-layer metric %s missing", name)
				}
			}
			if u := traced.Metrics["trace.unexplained_frac"].Value; u < 0 || u > 0.5 {
				t.Errorf("unexplained share %v outside [0, 0.5]", u)
			}
		})
	}
}

// TestReplayMatchesEngine pins the premise of the traced pass: the replay
// computes the engine's trajectory bit for bit.
func TestReplayMatchesEngine(t *testing.T) {
	inst := genInstance(5, 6, 24, 24, 0.4)
	gs := core.DefaultConfig()
	gs.MaxSweeps, gs.DisableIncremental = 8, true
	lppm := gs
	lppm.Privacy = &core.PrivacyConfig{Epsilon: lppmEpsilon, Delta: lppmDelta, Noise: core.NewNoiseSource(3)}
	jac := gs
	jac.Engine, jac.MaxSweeps = core.EngineJacobi, 4
	cases := []struct {
		name string
		cfg  core.Config
		body func(*replay, *core.SweepState) (*core.RunResult, error)
	}{
		{"gauss-seidel", gs, (*replay).gaussSeidel},
		{"gauss-seidel-lppm", lppm, (*replay).gaussSeidel},
		{"jacobi", jac, (*replay).jacobi},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, _, err := runCoordinator(inst, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var configure func(*replay)
			if c.cfg.Privacy != nil {
				lp, err := core.NewLPPM(core.PrivacyConfig{Epsilon: lppmEpsilon, Delta: lppmDelta, Noise: core.NewNoiseSource(3)})
				if err != nil {
					t.Fatal(err)
				}
				configure = func(r *replay) { r.perturb = lp.PerturbSBS }
			}
			_, got, err := tracedReplay(newTracer(), 0, inst, 1e-6, c.cfg.MaxSweeps, configure, c.body)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRun(got, want); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSelfTimeExcludesChildren(t *testing.T) {
	tr := &tracer{cur: -1, spans: []span{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: covered once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent
	}}
	root := tr.layers(0)["run"]["run"]
	if root.self != 40e-9 || root.busy != 100e-9 {
		t.Fatalf("root self %v busy %v, want 40ns and 100ns", root.self, root.busy)
	}
}

// TestQuartilesMatchPython checks the exclusive-method quartiles against
// Python's statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Fatalf("got q1 %v median %v q3 %v", s.Q1, s.Median, s.Q3)
	}
}

func TestVerdict(t *testing.T) {
	runS, _ := endToEndDef("run_s")
	rate, _ := endToEndDef("phases_per_s")
	sweeps, _ := endToEndDef("sweeps")
	m := func(xs ...float64) *metric { s := summarize(xs); return &metric{Value: s.Median, summary: s} }
	cases := []struct {
		name string
		d    metricDef
		a, b *metric
		want string
	}{
		{"steady", runS, m(1, 1.01, 0.99), m(1.02, 1.01, 1.03), "ok"},
		{"slower", runS, m(1, 1.01, 0.99), m(1.3, 1.31, 1.29), "REGRESSION"},
		{"faster", runS, m(1, 1.01, 0.99), m(0.7, 0.71, 0.69), "better"},
		{"noisy", runS, m(1, 1.5, 0.6), m(1.3, 1.8, 0.9), "unresolved"},
		{"noisy but all faster", runS, m(1, 1.5, 0.9), m(0.5, 0.6, 0.4), "better"},
		{"rate dropped", rate, m(100, 101, 99), m(70, 71, 69), "REGRESSION"},
		{"count equal", sweeps, m(3), m(3), "match"},
		{"count changed", sweeps, m(3), m(4), "MISMATCH"},
		// Many runs of varied instances: single runs spread 60%, their
		// median far less.
		{"many varied runs", runS, m(varied(1)...), m(varied(1.05)...), "ok"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// varied returns 100 samples spread evenly over [0.7, 1.3]·scale.
func varied(scale float64) []float64 {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = scale * (0.7 + 0.6*float64(i)/99)
	}
	return xs
}

func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, runS ...float64) string {
		w := &wresult{Name: "w", Metrics: map[string]*metric{}}
		w.setE2E("run_s", runS)
		w.setE2E("sweeps", []float64{3})
		path := filepath.Join(dir, name+".json")
		if err := writeJSON(path, &report{Workloads: []*wresult{w}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := mk("base", 1, 1.01, 0.99), mk("same", 1.01, 1, 1.02), mk("slow", 1.5, 1.52, 1.49)
	var out bytes.Buffer
	if ok, err := compareReports(base, same, &out); err != nil || !ok {
		t.Fatalf("same results: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if ok, err := compareReports(base, slow, &out); err != nil || ok {
		t.Fatalf("slower results: ok=%v err=%v\n%s", ok, err, out.String())
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-compare", "only-one.json"},
		{"stray"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps the repository's BENCHMARK.json in
// step with the metric tables and the workload list it describes.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name   string   `json:"name"`
		Why    string   `json:"why,omitempty"`
		Unit   string   `json:"unit,omitempty"`
		Better string   `json:"better,omitempty"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []named  `json:"workloads"`
		EndToEnd  []named  `json:"end_to_end"`
		PerLayer  []named  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wantW, wantE, wantL []named
	for _, w := range workloads() {
		wantW = append(wantW, named{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		if d.listed {
			bound := d.bound
			wantE = append(wantE, named{Name: d.name, Unit: d.unit, Better: d.better, Bound: &bound})
		}
	}
	for _, name := range perLayerListed {
		d := layerDef(name)
		wantL = append(wantL, named{Name: name, Unit: d.unit, Better: d.better})
	}
	for _, c := range []struct {
		what      string
		got, want []named
	}{{"workloads", spec.Workloads, wantW}, {"end_to_end", spec.EndToEnd, wantE}, {"per_layer", spec.PerLayer, wantL}} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s:\n got %+v\nwant %+v", c.what, c.got, c.want)
		}
	}
	if !reflect.DeepEqual(spec.Paths, []string{"cmd/edgebench"}) ||
		!reflect.DeepEqual(spec.Command, []string{"bash", "cmd/edgebench/run.sh"}) {
		t.Errorf("paths = %v, command = %v", spec.Paths, spec.Command)
	}
}

// TestFeasibleRejectsOverserve makes sure the per-run check can fail.
func TestFeasibleRejectsOverserve(t *testing.T) {
	inst := genInstance(1, 2, 3, 3, 1)
	y := model.NewRoutingPolicy(inst)
	x := model.NewCachingPolicy(inst)
	for n := 0; n < 2; n++ {
		x.Set(n, 0, true)
		y.Set(n, 0, 0, 0.9)
	}
	res := &core.RunResult{Sweeps: 1, History: []float64{0}, Solution: &model.Solution{Caching: x, Routing: y}}
	if feasible(inst, res) == nil {
		t.Fatal("a plan serving 180% of one demand passed the feasibility check")
	}
}
