package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent indexes the enclosing span
// (-1 for a root); Run numbers the traced run the span belongs to. Spans
// carry names and times only, never payload values.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
}

// tracer records spans in memory. begin/end may be called from several
// goroutines (the tcp workload's agents); push/pop additionally track a
// current span for single-goroutine callers, so nested calls find their
// parent without threading ids through every signature.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	run   int
	cur   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: start, Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

// end closes span id and returns its parent.
func (t *tracer) end(id int) int {
	stop := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = stop
	return t.spans[id].Parent
}

// push opens a span under the current one and makes it current.
func (t *tracer) push(name string) int {
	id := t.begin(name, t.cur)
	t.cur = id
	return id
}

// pop closes span id and makes its parent current again.
func (t *tracer) pop(id int) { t.cur = t.end(id) }

// root starts traced run number run with a root span named name; the
// caller pops it when the run ends.
func (t *tracer) root(name string, run int) int {
	t.run = run
	t.cur = -1
	return t.push(name)
}

// layerStat aggregates the spans of one name within one traced run.
type layerStat struct {
	calls int
	busy  float64   // seconds, inclusive of child spans
	self  float64   // seconds, excluding the time child spans cover
	durs  []float64 // per-call inclusive durations, seconds
}

// runLayers is the per-name breakdown of one traced run, grouped by the
// name of the root each span descends from ("setup", "run", "replay").
type runLayers map[string]map[string]*layerStat

// layers computes each span's self time — its duration minus the union of
// its children's intervals, clipped to it — and aggregates by root and name
// for traced run number run.
func (t *tracer) layers(run int) runLayers {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	var ids []int
	for i, s := range t.spans {
		if s.Run != run {
			continue
		}
		ids = append(ids, i)
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := runLayers{}
	for _, i := range ids {
		s := t.spans[i]
		r := i
		for t.spans[r].Parent >= 0 {
			r = t.spans[r].Parent
		}
		byName := out[t.spans[r].Name]
		if byName == nil {
			byName = make(map[string]*layerStat)
			out[t.spans[r].Name] = byName
		}
		st := byName[s.Name]
		if st == nil {
			st = &layerStat{}
			byName[s.Name] = st
		}
		dur := float64(s.End-s.Start) / 1e9
		st.calls++
		st.busy += dur
		st.durs = append(st.durs, dur)
		st.self += dur - float64(covered(t.spans, s, children[i]))/1e9
	}
	return out
}

// covered returns the nanoseconds of parent's interval that the union of
// the child spans covers.
func covered(spans []span, parent span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := spans[k].Start, spans[k].End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}
