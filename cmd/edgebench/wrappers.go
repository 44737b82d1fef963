package main

import (
	"context"
	"os"
	"sync"
	"time"

	"edgecache/internal/model"
	"edgecache/internal/transport"
)

// The wrappers below implement the program's own seams
// (transport.Endpoint, model.CheckpointSink, model.CheckpointFS) to time
// the calls that cross them. They record counts and times only, never
// message or snapshot contents.

type phaseKey struct{ sweep, phase int }

// bsEndpoint sits on the BS agent's endpoint. It always times each phase
// from the first announce Send to the matching upload Recv; with a tracer
// it also records the BS's span tree: sim.bs.overhead between phases,
// sim.bs.phase over each announce/upload round trip, transport.send under
// it. SBS-side spans attach to the phase span of the announce they answer.
type bsEndpoint struct {
	transport.Endpoint
	tr   *tracer // nil: phase timing only
	root int

	mu        sync.Mutex
	sent      map[phaseKey]time.Time
	phaseSpan map[phaseKey]int
	gap       int
	phaseMs   []float64
	recvWait  time.Duration
}

// start begins span recording under root, before the run's first phase.
func (e *bsEndpoint) start(tr *tracer, root int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.tr, e.root = tr, root
	e.gap = tr.begin("sim.bs.overhead", root)
}

func (e *bsEndpoint) Send(ctx context.Context, to string, m transport.Message) error {
	if m.Type != transport.MsgPhaseStart {
		return e.Endpoint.Send(ctx, to, m)
	}
	k := phaseKey{m.Sweep, m.Phase}
	e.mu.Lock()
	if _, retry := e.sent[k]; !retry {
		e.sent[k] = time.Now()
		if e.tr != nil {
			e.tr.end(e.gap)
			e.gap = -1
			e.phaseSpan[k] = e.tr.begin("sim.bs.phase", e.root)
		}
	}
	parent := e.phaseSpan[k]
	e.mu.Unlock()
	if e.tr == nil {
		return e.Endpoint.Send(ctx, to, m)
	}
	s := e.tr.begin("transport.send", parent)
	err := e.Endpoint.Send(ctx, to, m)
	e.tr.end(s)
	return err
}

func (e *bsEndpoint) Recv(ctx context.Context) (transport.Message, error) {
	t := time.Now()
	m, err := e.Endpoint.Recv(ctx)
	done := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.recvWait += done.Sub(t)
	if err != nil || m.Type != transport.MsgPolicyUpload {
		return m, err
	}
	k := phaseKey{m.Sweep, m.Phase}
	if sent, ok := e.sent[k]; ok {
		delete(e.sent, k)
		e.phaseMs = append(e.phaseMs, float64(done.Sub(sent))/1e6)
		if e.tr != nil {
			e.tr.end(e.phaseSpan[k])
			e.gap = e.tr.begin("sim.bs.overhead", e.root)
		}
	}
	return m, err
}

// finish closes the open overhead span at the end of a run.
func (e *bsEndpoint) finish() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tr != nil && e.gap >= 0 {
		e.tr.end(e.gap)
		e.gap = -1
	}
}

// phaseSpanOf returns the BS phase span an announce belongs to.
func (e *bsEndpoint) phaseSpanOf(sweep, phase int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id, ok := e.phaseSpan[phaseKey{sweep, phase}]; ok {
		return id
	}
	return e.root
}

// sbsEndpoint sits on one SBS agent's endpoint in a traced run:
// sim.sbs.turnaround spans from the announce Recv returning to the upload
// Send starting (decode, solve, LPPM, encode), then transport.send.
type sbsEndpoint struct {
	transport.Endpoint
	tr   *tracer
	bs   *bsEndpoint
	turn int
}

func (e *sbsEndpoint) Recv(ctx context.Context) (transport.Message, error) {
	m, err := e.Endpoint.Recv(ctx)
	if err == nil && m.Type == transport.MsgPhaseStart {
		e.turn = e.tr.begin("sim.sbs.turnaround", e.bs.phaseSpanOf(m.Sweep, m.Phase))
	}
	return m, err
}

func (e *sbsEndpoint) Send(ctx context.Context, to string, m transport.Message) error {
	if m.Type != transport.MsgPolicyUpload || e.turn < 0 {
		return e.Endpoint.Send(ctx, to, m)
	}
	parent := e.tr.end(e.turn)
	e.turn = -1
	s := e.tr.begin("transport.send", parent)
	err := e.Endpoint.Send(ctx, to, m)
	e.tr.end(s)
	return err
}

// timedSink wraps the checkpoint store the coordinator saves into.
type timedSink struct {
	tr    *tracer
	inner model.CheckpointSink
	saves int
}

func (s *timedSink) Save(ck *model.Checkpoint) error {
	id := s.tr.push("model.ckpt.save")
	err := s.inner.Save(ck)
	s.tr.pop(id)
	s.saves++
	return err
}

// timedFS is the filesystem under the checkpoint store. Each call is a
// span under the current one (a save, or DeepLatest's scan), so a save's
// self time is the snapshot encode plus CRC.
type timedFS struct {
	tr      *tracer
	inner   model.CheckpointFS
	written int64
}

func (f *timedFS) timed(name string, call func() error) error {
	id := f.tr.push(name)
	err := call()
	f.tr.pop(id)
	return err
}

func (f *timedFS) MkdirAll(dir string, perm os.FileMode) error { return f.inner.MkdirAll(dir, perm) }

func (f *timedFS) OpenFile(name string, flag int, perm os.FileMode) (model.CheckpointFile, error) {
	var file model.CheckpointFile
	err := f.timed("model.ckpt.open", func() (err error) {
		file, err = f.inner.OpenFile(name, flag, perm)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &timedFile{fs: f, inner: file}, nil
}

func (f *timedFS) Rename(oldpath, newpath string) error {
	return f.timed("model.ckpt.rename", func() error { return f.inner.Rename(oldpath, newpath) })
}

func (f *timedFS) Remove(name string) error {
	return f.timed("model.ckpt.remove", func() error { return f.inner.Remove(name) })
}

func (f *timedFS) ReadDirNames(dir string) ([]string, error) {
	var names []string
	err := f.timed("model.ckpt.readdir", func() (err error) {
		names, err = f.inner.ReadDirNames(dir)
		return err
	})
	return names, err
}

func (f *timedFS) ReadFile(name string) ([]byte, error) {
	var data []byte
	err := f.timed("model.ckpt.read", func() (err error) {
		data, err = f.inner.ReadFile(name)
		return err
	})
	return data, err
}

type timedFile struct {
	fs    *timedFS
	inner model.CheckpointFile
}

func (w *timedFile) Write(p []byte) (int, error) {
	var n int
	err := w.fs.timed("model.ckpt.write", func() (err error) {
		n, err = w.inner.Write(p)
		return err
	})
	w.fs.written += int64(n)
	return n, err
}

func (w *timedFile) Sync() error {
	return w.fs.timed("model.ckpt.fsync", w.inner.Sync)
}

func (w *timedFile) Close() error {
	return w.fs.timed("model.ckpt.close", w.inner.Close)
}
