package model

import (
	"fmt"
	"hash/crc32"
	"math"
)

// This file is the durable-state layer of the repository: a versioned,
// CRC-guarded binary snapshot of everything the DUA sweep (Algorithm 1)
// needs to continue after a coordinator crash — the sweep τ to resume at,
// both policies, the incremental aggregate, the cost history, the
// LPPM noise-stream position and the per-SBS health records of a
// distributed run (plus a legacy dual-multiplier section; see Mu).
//
// Design notes:
//
//   - The aggregate is SERIALIZED, not rebuilt on resume. The tracker
//     advances incrementally (YMinusInto/Install), and floating-point
//     summation order differs between the incremental path and a full
//     AggregateInto rebuild; reconstructing it would break the bit-identical
//     resume guarantee in the last bit.
//   - Floats round-trip through math.Float64bits, so +Inf (the initial
//     prevCost) and every denormal survive exactly.
//   - The routing tensor, the aggregate and the best routing tensor are
//     almost all zeros (each SBS serves a few (user, content) pairs), so
//     version 3 writes them as pair bodies — the sparse-block codec of
//     pairbody.go, which the wire shares — and the encoder sizes its one
//     output buffer from the counted nonzeros before writing.
//   - The decoder never trusts a length: every count is bounds-checked
//     against the remaining bytes BEFORE any allocation, and a corrupted or
//     truncated input yields a structured error, never a panic. A pair body
//     no longer ties the file size to the dense size, so the declared
//     N·U·F block must also fit maxCheckpointSize as dense float64s before
//     anything is allocated: a small file cannot demand a huge tensor. The
//     CRC32 trailer is verified first, so random corruption is rejected
//     cheaply.

const (
	// checkpointMagic identifies a checkpoint file.
	checkpointMagic = "EDGECKPT"
	// checkpointVersion is the current format version. The history:
	//   - Version 1 wrote every tensor densely and had no engine byte; its
	//     snapshots (which predate pluggable engines and were always
	//     Gauss-Seidel) decode with Engine set to EngineGaussSeidel.
	//   - Version 2 added the engine-kind byte after the phase word.
	//   - Version 3 writes Routing, Aggregate and Best.Routing as pair
	//     bodies (big-endian, see pairbody.go) instead of dense float64s;
	//     every other field keeps its little-endian version-2 layout.
	// Versions 1 and 2 still decode through the dense path. All three carry
	// a u32 phase word after the sweep: earlier builds could capture
	// mid-sweep, so a nonzero phase is rejected and the encoder writes 0.
	checkpointVersion = 3
	// maxCheckpointDim bounds each of N, U, F in a decoded checkpoint; a
	// hostile header must not drive a huge allocation.
	maxCheckpointDim = 1 << 20
	// maxCheckpointSize bounds the whole encoded snapshot (1 GiB), and the
	// N·U·F tensor a snapshot declares, as dense float64s.
	maxCheckpointSize = 1 << 30
)

// SBSFaultStats is the BS-observed fault record of one SBS agent over a
// distributed run (core re-exports it for RunResult.Faults). The
// in-process Coordinator never populates it; the sim BS agent does, and the
// chaos tests assert it against the injected fault schedule.
type SBSFaultStats struct {
	// Misses counts phases whose upload never arrived within the full
	// PhaseTimeout window (each one stalls the sweep by that timeout).
	Misses int
	// Retries counts MsgPhaseStart retransmissions within phase windows.
	Retries int
	// Malformed counts uploads that arrived but failed validation
	// (undecodable payload or wrong shapes) and were discarded.
	Malformed int
	// QuarantineSpans counts entries into quarantine (including
	// re-entries after a failed rejoin probe).
	QuarantineSpans int
	// SkippedPhases counts phases skipped outright while quarantined —
	// sweeps that did NOT burn a PhaseTimeout on a dead SBS.
	SkippedPhases int
	// FailedProbes counts cheap rejoin probes that went unanswered (each
	// costs only an eighth of the BS's PhaseTimeout).
	FailedProbes int
}

// SBSHealthState is the BS agent's record of one SBS: its liveness and its
// fault accounting. The agent updates these records in place during a run
// and checkpoints them as they are, so a resumed distributed run keeps
// quarantine decisions and statistics instead of re-learning them.
type SBSHealthState struct {
	// ConsecMisses counts full-window misses since the last good upload.
	ConsecMisses int
	// Quarantined marks the SBS as skipped; ProbeSweep is the sweep at
	// which the next rejoin probe goes out.
	Quarantined bool
	ProbeSweep  int
	// HoldConv defers the γ-convergence check while the SBS is freshly
	// quarantined: its policy is frozen, so the cost plateaus at once and
	// the criterion would fire before a transient outage can heal. The
	// first rejoin probe of the outage releases it, answered (rejoin) or
	// not (persistently dead, stop waiting for it).
	HoldConv bool
	SBSFaultStats
}

// Checkpoint is one recoverable snapshot of a DUA run, taken at a sweep
// boundary: the BS evaluates f(y(τ)) and applies the γ stop rule only at
// the end of a sweep, so a boundary is Algorithm 1's natural resume point
// and the only one the codec accepts.
type Checkpoint struct {
	// Sweep is the resume point: the next sweep to execute, from its first
	// phase.
	Sweep int
	// Engine records the sweep discipline that produced the trajectory.
	// Resume requires an engine of the same family: a Gauss-Seidel snapshot
	// cannot continue under a Jacobi engine (the trajectories diverge), but
	// the reference and parallel Jacobi engines are interchangeable.
	Engine EngineKind
	// Order is the SBS update order of the run (identity for the paper's
	// fixed order; checkpointing rejects shuffled-restart runs).
	Order []int
	// Caching and Routing are the BS's view of the policies (post-LPPM
	// when privacy is on).
	Caching *CachingPolicy
	Routing *RoutingPolicy
	// Aggregate is the tracker's running masked aggregate, stored verbatim
	// for bit-identical resume (see the file comment).
	Aggregate Mat
	// History is the per-sweep cost trail so far; PrevCost is the γ-check
	// reference (+Inf before the first completed sweep).
	History  []float64
	PrevCost float64
	// Best is the cheapest solution seen so far (nil before the first
	// completed sweep).
	Best *Solution
	// Mu is a legacy section: older snapshots held each SBS's raw dual
	// multipliers here. Nothing writes it any more, because μ is private
	// and the dual loop cold-starts every phase, so it never shaped the
	// trajectory. The codec still round-trips it, so such snapshots decode,
	// and resume ignores it.
	Mu [][]float64
	// HasNoise records whether LPPM was active; NoiseSeed and NoiseDraws
	// are then the noise stream's identity and position (see
	// core.NoiseSource), making the privacy noise seekable on resume.
	HasNoise   bool
	NoiseSeed  int64
	NoiseDraws uint64
	// Health holds the BS agent's per-SBS records of a distributed run:
	// empty for in-process runs, exactly N entries otherwise.
	Health []SBSHealthState
	// InstanceFP is the fingerprint of the instance the snapshot was taken
	// against (0 when unset); resume rejects a mismatched instance.
	InstanceFP uint64
}

// preflight validates internal consistency before encoding.
func (c *Checkpoint) preflight() error {
	if c.Caching == nil || c.Routing == nil {
		return fmt.Errorf("model: checkpoint: nil policy")
	}
	n, f := c.Caching.N, c.Caching.F
	u := c.Routing.T.U
	if c.Routing.T.N != n || c.Routing.T.F != f {
		return fmt.Errorf("model: checkpoint: routing is %dx%dx%d, caching is %dx%d",
			c.Routing.T.N, u, c.Routing.T.F, n, f)
	}
	if c.Aggregate.U != u || c.Aggregate.F != f {
		return fmt.Errorf("model: checkpoint: aggregate is %dx%d, want %dx%d", c.Aggregate.U, c.Aggregate.F, u, f)
	}
	if err := checkDims(n, u, f); err != nil {
		return err
	}
	if c.Sweep < 0 {
		return fmt.Errorf("model: checkpoint: resume sweep %d out of range", c.Sweep)
	}
	if !c.Engine.Valid() {
		return fmt.Errorf("model: checkpoint: unknown engine kind %d", c.Engine)
	}
	if err := validateOrder(c.Order, n); err != nil {
		return err
	}
	if len(c.Mu) != 0 && len(c.Mu) != n {
		return fmt.Errorf("model: checkpoint: %d multiplier vectors for N=%d", len(c.Mu), n)
	}
	if len(c.Health) != 0 && len(c.Health) != n {
		return fmt.Errorf("model: checkpoint: %d health entries for N=%d", len(c.Health), n)
	}
	if b := c.Best; b != nil {
		if b.Caching == nil || b.Routing == nil {
			return fmt.Errorf("model: checkpoint: best solution has nil policy")
		}
		if b.Caching.N != n || b.Caching.F != f || b.Routing.T.N != n || b.Routing.T.U != u || b.Routing.T.F != f {
			return fmt.Errorf("model: checkpoint: best solution shape mismatch")
		}
	}
	return nil
}

// checkDims bounds a snapshot's shape: each dimension in
// [1, maxCheckpointDim], and the N·U·F routing tensor, as dense float64s,
// within maxCheckpointSize — which also keeps every flat index of a pair
// body inside u32.
func checkDims(n, u, f int) error {
	if n <= 0 || u <= 0 || f <= 0 || n > maxCheckpointDim || u > maxCheckpointDim || f > maxCheckpointDim {
		return fmt.Errorf("model: checkpoint: dimensions %dx%dx%d out of range", n, u, f)
	}
	if cells := uint64(n) * uint64(u) * uint64(f); cells > maxCheckpointSize/8 {
		return fmt.Errorf("model: checkpoint: %dx%dx%d tensor of %d cells exceeds the %d-byte limit", n, u, f, cells, maxCheckpointSize)
	}
	return nil
}

// validateOrder checks that order is a permutation of 0..n-1.
func validateOrder(order []int, n int) error {
	if len(order) != n {
		return fmt.Errorf("model: checkpoint: order has %d entries for N=%d", len(order), n)
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("model: checkpoint: order %v is not a permutation of 0..%d", order, n-1)
		}
		seen[v] = true
	}
	return nil
}

// Validate checks the snapshot against the instance it will resume.
func (c *Checkpoint) Validate(in *Instance) error {
	if err := c.preflight(); err != nil {
		return err
	}
	if c.Caching.N != in.N || c.Caching.F != in.F || c.Routing.T.U != in.U {
		return fmt.Errorf("model: checkpoint: shapes %dx%dx%d do not match instance %dx%dx%d",
			c.Caching.N, c.Routing.T.U, c.Caching.F, in.N, in.U, in.F)
	}
	if c.InstanceFP != 0 {
		if fp := in.Fingerprint(); fp != c.InstanceFP {
			return fmt.Errorf("model: checkpoint: instance fingerprint %016x does not match %016x — snapshot was taken against different data", c.InstanceFP, fp)
		}
	}
	return nil
}

// ckptFixed is the encoded size of the fixed fields: magic, version, the
// three dimensions, fingerprint, sweep, phase, engine, prevCost, the noise
// flag, seed and draws, the history length, the best, mu and health flags
// or lengths, and the CRC trailer.
const ckptFixed = len(checkpointMagic) + 2 + 3*4 + 8 + 4 + 4 + 1 + 8 + 1 + 8 + 8 + 4 + 1 + 1 + 4 + 4

// MarshalBinary encodes the snapshot in the current binary format with a
// CRC32 trailer. It counts the nonzeros of the sparse tensors first, so
// the returned buffer is the encode's one allocation, sized exactly.
func (c *Checkpoint) MarshalBinary() ([]byte, error) {
	if err := c.preflight(); err != nil {
		return nil, err
	}
	n, u, f := c.Caching.N, c.Routing.T.U, c.Caching.F
	routingNNZ, aggNNZ := CountPairs(c.Routing.T.Data), CountPairs(c.Aggregate.Data)
	size := ckptFixed + 4*n + 8*len(c.Caching.bits) + PairBodySize(routingNNZ) + PairBodySize(aggNNZ) +
		8*len(c.History) + len(c.Health)*healthEntrySize
	bestNNZ := 0
	if c.Best != nil {
		bestNNZ = CountPairs(c.Best.Routing.T.Data)
		size += 8*len(c.Best.Caching.bits) + PairBodySize(bestNNZ) + 3*8
	}
	for _, mu := range c.Mu {
		size += 4 + 8*len(mu)
	}
	if size > maxCheckpointSize {
		return nil, fmt.Errorf("model: checkpoint: encoded size %d exceeds limit %d", size, maxCheckpointSize)
	}
	w := ckptWriter{buf: make([]byte, 0, size)}
	w.buf = append(w.buf, checkpointMagic...)
	w.u16(checkpointVersion)
	w.u32(uint32(n))
	w.u32(uint32(u))
	w.u32(uint32(f))
	w.u64(c.InstanceFP)
	w.u32(uint32(c.Sweep))
	w.u32(0) // phase word: always a sweep boundary
	w.u8(uint8(c.Engine))
	w.f64(c.PrevCost)
	w.bool8(c.HasNoise)
	w.i64(c.NoiseSeed)
	w.u64(c.NoiseDraws)
	for _, v := range c.Order {
		w.u32(uint32(v))
	}
	w.words(c.Caching.bits)
	w.buf = AppendPairBody(w.buf, routingNNZ, c.Routing.T.Data)
	w.buf = AppendPairBody(w.buf, aggNNZ, c.Aggregate.Data)
	w.u32(uint32(len(c.History)))
	w.f64s(c.History)
	w.bool8(c.Best != nil)
	if c.Best != nil {
		w.words(c.Best.Caching.bits)
		w.buf = AppendPairBody(w.buf, bestNNZ, c.Best.Routing.T.Data)
		w.f64(c.Best.Cost.Edge)
		w.f64(c.Best.Cost.Backhaul)
		w.f64(c.Best.Cost.Total)
	}
	w.bool8(len(c.Mu) != 0)
	for _, mu := range c.Mu {
		w.u32(uint32(len(mu)))
		w.f64s(mu)
	}
	w.u32(uint32(len(c.Health)))
	for _, h := range c.Health {
		w.u32(uint32(h.ConsecMisses))
		w.bool8(h.Quarantined)
		w.u32(uint32(h.ProbeSweep))
		w.bool8(h.HoldConv)
		w.u32(uint32(h.Misses))
		w.u32(uint32(h.Retries))
		w.u32(uint32(h.Malformed))
		w.u32(uint32(h.QuarantineSpans))
		w.u32(uint32(h.SkippedPhases))
		w.u32(uint32(h.FailedProbes))
	}
	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf, nil
}

// UnmarshalCheckpoint decodes a snapshot, verifying the CRC trailer first
// and bounds-checking every length against the remaining input before
// allocating. It returns a structured error for any truncated, corrupted
// or inconsistent input; it never panics. A snapshot an earlier build took
// mid-sweep (nonzero phase word) is rejected: resume happens at sweep
// boundaries only, and a store falls back to its newest boundary snapshot.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	const headerLen = len(checkpointMagic) + 2
	if len(data) > maxCheckpointSize {
		return nil, fmt.Errorf("model: checkpoint: %d bytes exceeds limit %d", len(data), maxCheckpointSize)
	}
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("model: checkpoint: %d bytes is too short for header and trailer", len(data))
	}
	if string(data[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("model: checkpoint: bad magic %q", data[:len(checkpointMagic)])
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	wantCRC := uint32(trailer[0]) | uint32(trailer[1])<<8 | uint32(trailer[2])<<16 | uint32(trailer[3])<<24
	if got := crc32.ChecksumIEEE(body); got != wantCRC {
		return nil, fmt.Errorf("model: checkpoint: CRC mismatch (stored %08x, computed %08x)", wantCRC, got)
	}

	r := &ckptReader{buf: body, off: len(checkpointMagic)}
	version := r.u16("version")
	if r.err == nil && (version < 1 || version > checkpointVersion) {
		return nil, fmt.Errorf("model: checkpoint: unsupported version %d (want 1..%d)", version, checkpointVersion)
	}
	n := int(r.u32("N"))
	u := int(r.u32("U"))
	f := int(r.u32("F"))
	if r.err == nil {
		if err := checkDims(n, u, f); err != nil {
			return nil, err
		}
	}
	ck := &Checkpoint{InstanceFP: r.u64("fingerprint")}
	ck.Sweep = int(r.u32("sweep"))
	phase := r.u32("phase")
	if version >= 2 {
		// Version 1 predates pluggable engines; its snapshots were always
		// produced by the Gauss-Seidel sweep, which the zero value encodes.
		ck.Engine = EngineKind(r.u8("engine"))
		if r.err == nil && !ck.Engine.Valid() {
			return nil, fmt.Errorf("model: checkpoint: unknown engine kind %d", ck.Engine)
		}
	}
	ck.PrevCost = r.f64("prevCost")
	ck.HasNoise = r.flag("hasNoise")
	ck.NoiseSeed = r.i64("noiseSeed")
	ck.NoiseDraws = r.u64("noiseDraws")
	if r.err != nil {
		return nil, r.err
	}
	if ck.Sweep < 0 {
		return nil, fmt.Errorf("model: checkpoint: resume sweep %d out of range", ck.Sweep)
	}
	if phase != 0 {
		return nil, fmt.Errorf("model: checkpoint: snapshot taken mid-sweep (sweep %d phase %d); mid-sweep snapshots no longer resume, only sweep boundaries do", ck.Sweep, phase)
	}

	ck.Order = make([]int, n)
	for i := range ck.Order {
		ck.Order[i] = int(r.u32("order"))
	}
	if r.err != nil {
		return nil, r.err
	}
	if err := validateOrder(ck.Order, n); err != nil {
		return nil, err
	}

	// Versions 1 and 2 write the three tensors densely, version 3 as pair
	// bodies.
	block := r.f64s
	if version >= 3 {
		block = r.pairBlock
	}
	ck.Caching = decodeCachingBits(r, n, f, "caching bits")
	routingData := block(int64(n)*int64(u)*int64(f), "routing tensor")
	aggData := block(int64(u)*int64(f), "aggregate")
	histLen := r.count("history length", 8)
	hist := r.f64s(int64(histLen), "history")
	if r.err != nil {
		return nil, r.err
	}
	ck.Routing = &RoutingPolicy{T: Tensor3{N: n, U: u, F: f, Data: routingData}}
	ck.Aggregate = Mat{U: u, F: f, Data: aggData}
	ck.History = hist

	if r.flag("best flag") && r.err == nil {
		bestCaching := decodeCachingBits(r, n, f, "best caching bits")
		bestRouting := block(int64(n)*int64(u)*int64(f), "best routing tensor")
		edge := r.f64("best edge cost")
		backhaul := r.f64("best backhaul cost")
		total := r.f64("best total cost")
		if r.err != nil {
			return nil, r.err
		}
		ck.Best = &Solution{
			Caching: bestCaching,
			Routing: &RoutingPolicy{T: Tensor3{N: n, U: u, F: f, Data: bestRouting}},
			Cost:    CostBreakdown{Edge: edge, Backhaul: backhaul, Total: total},
		}
	}
	if r.err != nil {
		return nil, r.err
	}

	if r.flag("mu flag") && r.err == nil {
		ck.Mu = make([][]float64, n)
		for i := range ck.Mu {
			muLen := r.count(fmt.Sprintf("mu[%d] length", i), 8)
			ck.Mu[i] = r.f64s(int64(muLen), "mu vector")
			if r.err != nil {
				return nil, r.err
			}
		}
	}

	healthLen := r.count("health length", healthEntrySize)
	if r.err != nil {
		return nil, r.err
	}
	if healthLen != 0 && healthLen != n {
		return nil, fmt.Errorf("model: checkpoint: %d health entries for N=%d", healthLen, n)
	}
	if healthLen > 0 {
		ck.Health = make([]SBSHealthState, healthLen)
		for i := range ck.Health {
			h := &ck.Health[i]
			h.ConsecMisses = int(r.u32("health"))
			h.Quarantined = r.flag("health")
			h.ProbeSweep = int(r.u32("health"))
			h.HoldConv = r.flag("health")
			h.Misses = int(r.u32("health"))
			h.Retries = int(r.u32("health"))
			h.Malformed = int(r.u32("health"))
			h.QuarantineSpans = int(r.u32("health"))
			h.SkippedPhases = int(r.u32("health"))
			h.FailedProbes = int(r.u32("health"))
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("model: checkpoint: %d trailing bytes after payload", len(r.buf)-r.off)
	}
	return ck, nil
}

// healthEntrySize is the encoded size of one SBSHealthState.
const healthEntrySize = 8*4 + 2

// decodeCachingBits reads an N×F packed bitset.
func decodeCachingBits(r *ckptReader, n, f int, what string) *CachingPolicy {
	p := NewCachingPolicyDims(n, f)
	words := r.words(int64(len(p.bits)), what)
	if r.err != nil {
		return nil
	}
	copy(p.bits, words)
	return p
}

// ckptWriter appends the little-endian encoding to buf, which
// MarshalBinary sizes up front.
type ckptWriter struct{ buf []byte }

func (w *ckptWriter) u8(v uint8) { w.buf = append(w.buf, v) }
func (w *ckptWriter) bool8(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *ckptWriter) u16(v uint16) { w.buf = append(w.buf, byte(v), byte(v>>8)) }
func (w *ckptWriter) u32(v uint32) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (w *ckptWriter) u64(v uint64) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (w *ckptWriter) i64(v int64)   { w.u64(uint64(v)) }
func (w *ckptWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *ckptWriter) f64s(vs []float64) {
	for _, v := range vs {
		w.f64(v)
	}
}
func (w *ckptWriter) words(vs []uint64) {
	for _, v := range vs {
		w.u64(v)
	}
}

// ckptReader is a sticky-error bounds-checked decoder over the body bytes
// (CRC trailer already stripped and verified).
type ckptReader struct {
	buf []byte
	off int
	err error
}

func (r *ckptReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("model: checkpoint: "+format, args...)
	}
}

// take returns the next n bytes, failing (without allocating) when fewer
// remain.
func (r *ckptReader) take(n int64, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > int64(len(r.buf)-r.off) {
		r.fail("truncated reading %s: need %d bytes, have %d", what, n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *ckptReader) u8(what string) uint8 {
	b := r.take(1, what)
	if b == nil {
		return 0
	}
	return b[0]
}

// flag reads a bool byte. The encoder writes only 0 and 1, so any other
// value is rejected: decoding it as true would re-encode differently.
func (r *ckptReader) flag(what string) bool {
	v := r.u8(what)
	if v > 1 {
		r.fail("%s byte is %d, want 0 or 1", what, v)
	}
	return v == 1
}

func (r *ckptReader) u16(what string) uint16 {
	b := r.take(2, what)
	if b == nil {
		return 0
	}
	return uint16(b[0]) | uint16(b[1])<<8
}

func (r *ckptReader) u32(what string) uint32 {
	b := r.take(4, what)
	if b == nil {
		return 0
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func (r *ckptReader) u64(what string) uint64 {
	b := r.take(8, what)
	if b == nil {
		return 0
	}
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (r *ckptReader) i64(what string) int64   { return int64(r.u64(what)) }
func (r *ckptReader) f64(what string) float64 { return math.Float64frombits(r.u64(what)) }

// count reads a u32 length prefix and rejects it when the promised payload
// (elemSize bytes per element) cannot fit in the remaining input — the
// oversized-length guard that runs before any allocation.
func (r *ckptReader) count(what string, elemSize int) int {
	v := int64(r.u32(what))
	if r.err != nil {
		return 0
	}
	if v*int64(elemSize) > int64(len(r.buf)-r.off) {
		r.fail("%s %d overruns the remaining %d bytes", what, v, len(r.buf)-r.off)
		return 0
	}
	return int(v)
}

// f64s reads n float64 values; the byte requirement is checked by take
// before the output slice is allocated.
func (r *ckptReader) f64s(n int64, what string) []float64 {
	b := r.take(n*8, what)
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(uint64(b[i*8]) | uint64(b[i*8+1])<<8 | uint64(b[i*8+2])<<16 |
			uint64(b[i*8+3])<<24 | uint64(b[i*8+4])<<32 | uint64(b[i*8+5])<<40 |
			uint64(b[i*8+6])<<48 | uint64(b[i*8+7])<<56)
	}
	return out
}

// pairBlock reads a pair body of a block of n cells and returns the block
// densely. The body is validated in place before the block is allocated;
// n is bounded by checkDims.
func (r *ckptReader) pairBlock(n int64, what string) []float64 {
	if r.err != nil {
		return nil
	}
	pairs, rest, err := CutPairBody(r.buf[r.off:], uint64(n))
	if err != nil {
		r.fail("%s: %v", what, err)
		return nil
	}
	r.off = len(r.buf) - len(rest)
	out := make([]float64, n)
	for k := range pairs.Len() {
		i, v := pairs.At(k)
		out[i] = v
	}
	return out
}

// words reads n uint64 words with the same pre-allocation bounds check.
func (r *ckptReader) words(n int64, what string) []uint64 {
	b := r.take(n*8, what)
	if b == nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(b[i*8]) | uint64(b[i*8+1])<<8 | uint64(b[i*8+2])<<16 |
			uint64(b[i*8+3])<<24 | uint64(b[i*8+4])<<32 | uint64(b[i*8+5])<<40 |
			uint64(b[i*8+6])<<48 | uint64(b[i*8+7])<<56
	}
	return out
}
