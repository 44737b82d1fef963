// Command edgebench is the repository's end-to-end and per-layer
// benchmark. It runs four workloads, each a closed loop with one client:
// a planning job starts only after the previous one returned. The jobs plan
// instances drawn from -seed. An untimed correctness gate runs first; every
// run is checked.
//
// With -trace 0 it measures the end-to-end metrics with tracing off; with
// -trace 1 it runs the traced pass, which times every call into
// internal/core, internal/model, internal/transport and internal/sim from
// this package and reports per-layer metrics. -compare diffs two result
// files against the metrics' regression bounds. See README.md.
//
//	bash cmd/edgebench/run.sh -seed 99 -out cmd/edgebench/results/a
//	bash cmd/edgebench/run.sh -compare a/results.json b/results.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"edgecache/internal/core"
	"edgecache/internal/model"
	"edgecache/internal/transport"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// bench holds the settings shared by every workload of one invocation.
type bench struct {
	seed    int64
	seconds float64
	// minRuns is the fewest runs measured even when they outlast seconds.
	minRuns int
	// tmpDir holds the checkpoint directories of the ckpt workload.
	tmpDir string
	log    io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edgebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 99, "seed of the instance stream; 7 is the held-out seed")
	seconds := fs.Float64("seconds", 30, "measuring time per workload, in seconds")
	trace := fs.Int("trace", 0, "0 measures end to end with tracing off; 1 runs the traced per-layer pass")
	out := fs.String("out", "", "directory for results.json (-trace 0) or layers.json and trace.json (-trace 1)")
	compare := fs.Bool("compare", false, "compare two results.json files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "edgebench: -compare needs two result files")
			return 2
		}
		ok, err := compareReports(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "edgebench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "edgebench: unexpected arguments; see -h")
		return 2
	}
	var selected []*workload
	for _, w := range workloads() {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "edgebench: unknown workload %q\n", *name)
		return 2
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(stderr, "edgebench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".bench_build", "edgebench-")
	if err != nil {
		fmt.Fprintln(stderr, "edgebench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	b := &bench{seed: *seed, seconds: *seconds, minRuns: 3, tmpDir: tmp, log: stdout}
	rep := b.measure(selected, *trace == 1)

	if *out != "" {
		if err := rep.write(*out); err != nil {
			fmt.Fprintln(stderr, "edgebench:", err)
			return 1
		}
	}
	last, err := json.Marshal(rep.summaryLine())
	if err != nil {
		fmt.Fprintln(stderr, "edgebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(last))
	if !rep.correct() {
		return 1
	}
	return 0
}

// report is the results file: host facts plus one entry per workload.
type report struct {
	Schema    string     `json:"schema"`
	Seed      int64      `json:"seed"`
	Seconds   float64    `json:"seconds"`
	Traced    bool       `json:"traced"`
	NumCPU    int        `json:"num_cpu"`
	GoVersion string     `json:"go_version"`
	Platform  string     `json:"platform"`
	Workloads []*wresult `json:"workloads"`
}

// wresult is one workload's outcome.
type wresult struct {
	Name       string             `json:"name"`
	Why        string             `json:"why"`
	N          int                `json:"n"`
	U          int                `json:"u"`
	F          int                `json:"f"`
	Density    float64            `json:"link_density"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Runs       int                `json:"runs"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Metrics    map[string]*metric `json:"metrics"`
	// Layers is the traced pass's layer table: median self time per span
	// name within a run, with the run's unexplained remainder.
	Layers []layerRow `json:"layers,omitempty"`
	spans  []span
}

// metric is one reported number with the per-run samples behind it. Value
// is the samples' median, except where noted at the point it is set.
type metric struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Value  float64 `json:"value"`
	summary
}

type layerRow struct {
	Name  string  `json:"name"`
	Calls float64 `json:"calls"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share"`
}

func (w *wresult) attempt(err error, what string) {
	w.Attempted++
	if err != nil {
		w.Failed++
		w.Errors = append(w.Errors, fmt.Sprintf("%s: %v", what, err))
	}
}

func (w *wresult) set(d metricDef, s summary) {
	v := s.Median
	if d.mean {
		v = mean(s.Samples)
	}
	w.Metrics[d.name] = &metric{Unit: d.unit, Better: d.better, Value: v, summary: s}
}

// setE2E records an end-to-end metric from its samples.
func (w *wresult) setE2E(name string, samples []float64) {
	d, _ := endToEndDef(name)
	w.set(d, summarize(samples))
}

func (b *bench) measure(ws []*workload, traced bool) *report {
	rep := &report{
		Schema: "edgebench/v1", Seed: b.seed, Seconds: b.seconds, Traced: traced,
		NumCPU:    runtime.NumCPU(),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
	}
	for _, w := range ws {
		// The benchmark is one load-generating process on at most 2 threads.
		runtime.GOMAXPROCS(min(w.procs, runtime.NumCPU()))
		fmt.Fprintf(b.log, "edgebench: %s (N=%d U=%d F=%d links=%.0f%%) seed=%d traced=%v GOMAXPROCS=%d\n",
			w.name, w.n, w.u, w.f, 100*w.density, b.seed, traced, runtime.GOMAXPROCS(0))
		var wr *wresult
		if traced {
			wr = b.traced(w)
		} else {
			wr = b.endToEnd(w)
		}
		wr.GOMAXPROCS = runtime.GOMAXPROCS(0)
		rep.Workloads = append(rep.Workloads, wr)
		wr.print(b.log)
	}
	return rep
}

func newResult(w *workload) *wresult {
	return &wresult{Name: w.name, Why: w.why, N: w.n, U: w.u, F: w.f, Density: w.density,
		Metrics: make(map[string]*metric)}
}

// endToEnd runs the gate on the first instance, then plans the workload's
// instance set in passes, one run per instance per pass, until the
// measuring time is spent; the first pass always completes. An instance's
// run time, and the phase and recovery times that go with it, come from its
// fastest run, and its set-up time is its fastest set-up: the host runs
// one vCPU or the other up to 1.5 times slower for fractions of a second
// at a time, and a slowed run measures the host, not the program. Every repeat must reproduce the
// bits of the instance's first run. Counts are read from instance 0, which
// replays the gate's instance, so two result files of one seed match
// exactly.
func (b *bench) endToEnd(w *workload) *wresult {
	wr := newResult(w)
	ref, err := w.gate(b, w.instance(b.seed, 0), instanceSeed(b.seed, 0))
	wr.attempt(err, "correctness gate")

	// best is one instance's first result and its fastest run.
	type best struct {
		res          *core.RunResult
		out          *outcome
		setupS, runS float64
	}
	insts := make([]*model.Instance, w.instances)
	bests := make([]best, w.instances)
	for i := range insts {
		insts[i] = w.instance(b.seed, i)
	}
	bests[0].res = ref
	var allocs []float64
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for i, inst := range insts {
			if pass > 0 && !time.Now().Before(deadline) {
				break
			}
			out, setupS, runS, allocMB, err := b.once(w, inst, instanceSeed(b.seed, i))
			if err == nil {
				err = feasible(inst, out.res)
			}
			bi := &bests[i]
			if err == nil && bi.res != nil {
				err = sameRun(out.res, bi.res)
			}
			wr.attempt(err, fmt.Sprintf("pass %d, instance %d", pass, i))
			if err != nil {
				continue
			}
			wr.Runs++
			allocs = append(allocs, allocMB)
			if bi.res == nil {
				bi.res = out.res
			}
			if bi.out == nil || setupS < bi.setupS {
				bi.setupS = setupS
			}
			if bi.out == nil || runS < bi.runS {
				bi.out, bi.runS = out, runS
			}
		}
	}

	samples := map[string][]float64{}
	var phases []float64
	for _, bi := range bests {
		if bi.out == nil {
			continue // failed on every pass, which fails the benchmark
		}
		samples["setup_s"] = append(samples["setup_s"], bi.setupS)
		samples["run_s"] = append(samples["run_s"], bi.runS)
		samples["phases_per_s"] = append(samples["phases_per_s"], float64(w.n*bi.res.Sweeps)/bi.runS)
		if bi.out.phaseMs != nil {
			samples["phase_ms_p50"] = append(samples["phase_ms_p50"], percentile(bi.out.phaseMs, 50))
			samples["phase_ms_p99"] = append(samples["phase_ms_p99"], percentile(bi.out.phaseMs, 99))
			phases = append(phases, bi.out.phaseMs...)
		}
		if bi.out.recoverS > 0 {
			samples["recover_s"] = append(samples["recover_s"], bi.out.recoverS)
		}
	}
	if len(allocs) > 0 {
		samples["alloc_mb_per_run"] = allocs
	}
	if b0 := bests[0]; b0.out != nil {
		samples["sweeps"] = []float64{float64(b0.res.Sweeps)}
		samples["serving_cost"] = []float64{b0.res.Solution.Cost.Total}
		if b0.out.phaseMs != nil {
			samples["wire_bytes_per_sweep"] = []float64{float64(b0.out.wireBytes) / float64(b0.res.Sweeps)}
		}
	}
	for name, xs := range samples {
		wr.setE2E(name, xs)
	}
	// Phase percentiles pool every phase of every instance's fastest run,
	// so p99 has at least ten samples beyond it; the quartiles stay those
	// of the per-instance values.
	for name, p := range map[string]float64{"phase_ms_p50": 50, "phase_ms_p99": 99} {
		if m := wr.Metrics[name]; m != nil {
			m.Value = percentile(phases, p)
		}
	}
	wr.setE2E("failed_frac", []float64{float64(wr.Failed) / float64(wr.Attempted)})
	return wr
}

// once sets up and runs one job, timing both; allocation is read around
// the run, outside the timed regions.
func (b *bench) once(w *workload, inst *model.Instance, seed int64) (out *outcome, setupS, runS, allocMB float64, err error) {
	runtime.GC()
	t := time.Now()
	j, err := w.setup(b, inst, seed)
	setupS = time.Since(t).Seconds()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer j.close()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t = time.Now()
	out, err = j.run()
	runS = time.Since(t).Seconds()
	runtime.ReadMemStats(&m1)
	return out, setupS, runS, float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), err
}

// traced runs traced iterations until the measuring time is spent. Each
// iteration also runs the untraced reference the replay must match; the
// ratio of the two medians is the tracing overhead.
func (b *bench) traced(w *workload) *wresult {
	wr := newResult(w)
	tr := newTracer()
	samples := map[string][]float64{}
	var tables []map[string]*layerStat
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for i := 0; i < b.minRuns || time.Now().Before(deadline); i++ {
		inst := w.instance(b.seed, i)
		runtime.GC()
		m, res, err := w.trace(b, tr, i, inst, instanceSeed(b.seed, i))
		wr.attempt(err, fmt.Sprintf("traced run %d", i))
		if err != nil {
			continue
		}
		wr.Runs++
		runLayers := tr.layers(i)["run"]
		root := runLayers["run"]
		m["trace.unexplained_frac"] = root.self / root.busy
		m["traced_s"] = root.busy
		m["transport.payload.encode_us"], m["transport.payload.decode_us"], err = payloadCost(inst, res)
		if err != nil {
			wr.attempt(err, "payload codec")
			continue
		}
		for k, v := range m {
			samples[k] = append(samples[k], v)
		}
		tables = append(tables, runLayers)
	}
	for k, xs := range samples {
		if k == "untraced_s" || k == "traced_s" {
			continue
		}
		d, ok := endToEndDef(k)
		if !ok {
			d = layerDef(k)
		}
		wr.set(d, summarize(xs))
	}
	if len(samples["traced_s"]) > 0 {
		wr.set(layerDef("trace.overhead_frac"),
			summarize([]float64{median(samples["traced_s"])/median(samples["untraced_s"]) - 1}))
	}
	wr.Layers = layerTable(tables)
	wr.spans = tr.spans
	return wr
}

// replayMetrics derives the core and model metrics of one traced run from
// the replay's spans (under the "replay" root for tcp, "run" otherwise) and
// its work counts, plus every span name's busy time.
func replayMetrics(tr *tracer, run int, r *replay) map[string]float64 {
	all := tr.layers(run)
	m := map[string]float64{
		"core.solve.calls":      float64(r.solves),
		"core.solve.dual_iters": float64(r.dualIters),
		"core.solve.items":      float64(r.solvedItems),
	}
	for rootName, byName := range all {
		for name, st := range byName {
			if name != rootName {
				m[name+".busy_s"] += st.busy
			}
		}
	}
	l := all["replay"]
	if l == nil {
		l = all["run"]
	}
	var tracker, policy float64
	for name, st := range l {
		switch {
		case strings.HasPrefix(name, "model.tracker."):
			tracker += st.busy
		case strings.HasPrefix(name, "model.policy."):
			policy += st.busy
		}
	}
	m["model.tracker.busy_s"] = tracker
	m["model.policy.busy_s"] = policy
	if solve := l["core.solve"]; solve != nil {
		m["core.solve.us_p50"] = percentile(solve.durs, 50) * 1e6
		m["core.solve.us_p99"] = percentile(solve.durs, 99) * 1e6
	}
	return m
}

// payloadCost times transport.EncodePayload and DecodePayload on one
// announce and one upload body of the workload's size, built from the run's
// plan, and returns the median microseconds per phase (both bodies).
func payloadCost(inst *model.Instance, res *core.RunResult) (encUS, decUS float64, err error) {
	announce := transport.AggregateAnnounce{YMinus: res.Solution.Routing.Aggregate(inst).Rows()}
	upload := transport.PolicyUpload{Cache: res.Solution.Caching.RowBools(0), Routing: res.Solution.Routing.SBS(0).Rows()}
	const reps = 15
	var enc, dec []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		a, err := transport.EncodePayload(announce)
		if err != nil {
			return 0, 0, err
		}
		u, err := transport.EncodePayload(upload)
		if err != nil {
			return 0, 0, err
		}
		enc = append(enc, float64(time.Since(t).Nanoseconds())/1e3)
		t = time.Now()
		var ann transport.AggregateAnnounce
		var up transport.PolicyUpload
		if err := transport.DecodePayload(a, &ann); err != nil {
			return 0, 0, err
		}
		if err := transport.DecodePayload(u, &up); err != nil {
			return 0, 0, err
		}
		dec = append(dec, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return median(enc), median(dec), nil
}

// layerTable is the per-name median self time of the "run" root across
// traced runs; the root's own self time is the unexplained remainder.
func layerTable(runs []map[string]*layerStat) []layerRow {
	calls, self := map[string][]float64{}, map[string][]float64{}
	var total []float64
	for _, l := range runs {
		total = append(total, l["run"].busy)
		for name, st := range l {
			calls[name] = append(calls[name], float64(st.calls))
			self[name] = append(self[name], st.self)
		}
	}
	var rows []layerRow
	for name := range self {
		row := layerRow{Name: name, Calls: median(calls[name]), SelfS: median(self[name])}
		if name == "run" {
			row.Name = "(unexplained)"
		}
		row.Share = row.SelfS / median(total)
		rows = append(rows, row)
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].SelfS > rows[b].SelfS })
	return rows
}

func (w *wresult) print(out io.Writer) {
	names := make([]string, 0, len(w.Metrics))
	for name := range w.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := w.Metrics[name]
		fmt.Fprintf(out, "  %-34s %14.6g %-6s (q1 %.6g, q3 %.6g, n=%d)\n", name, m.Value, m.Unit, m.Q1, m.Q3, len(m.Samples))
	}
	if len(w.Layers) > 0 {
		fmt.Fprintf(out, "  layer table (median self time per run):\n")
		for _, r := range w.Layers {
			fmt.Fprintf(out, "    %-30s %10.0f calls %12.6f s %6.1f%%\n", r.Name, r.Calls, r.SelfS, 100*r.Share)
		}
	}
	for _, e := range w.Errors {
		fmt.Fprintf(out, "  FAILED %s\n", e)
	}
	fmt.Fprintf(out, "  runs=%d attempted=%d failed=%d\n", w.Runs, w.Attempted, w.Failed)
}

func (r *report) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return false
		}
	}
	return true
}

// summaryLine is the one-line JSON summary printed last: the BENCHMARK.json
// metrics of the pass (end-to-end, or per-layer when traced), keyed by
// metric name for one workload and by workload/metric for several.
func (r *report) summaryLine() map[string]any {
	var names []string
	if r.Traced {
		names = perLayerListed
	} else {
		for _, d := range endToEnd {
			if d.listed {
				names = append(names, d.name)
			}
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	attempted, failed := 0, 0
	for _, w := range r.Workloads {
		attempted += w.Attempted
		failed += w.Failed
		for _, name := range names {
			key := name
			if len(r.Workloads) > 1 {
				key = w.Name + "/" + name
			}
			if m := w.Metrics[name]; m != nil {
				metrics[key] = value{m.Value, m.Unit}
			}
		}
	}
	return map[string]any{"correct": r.correct(), "attempted": attempted, "failed": failed, "metrics": metrics}
}

// write saves the report under dir; a traced pass also writes every span,
// grouped by workload (span parents index the workload's own list).
func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := "results.json"
	if r.Traced {
		name = "layers.json"
		type traceFile struct {
			Workload string `json:"workload"`
			Spans    []span `json:"spans"`
		}
		var all []traceFile
		for _, w := range r.Workloads {
			all = append(all, traceFile{w.Name, w.spans})
		}
		data, err := json.Marshal(all)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(dir, name), r)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
