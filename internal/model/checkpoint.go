package model

import (
	"fmt"
	"hash/crc32"
	"math"
)

// This file is the durable-state layer of the repository: a versioned,
// CRC-guarded binary snapshot of everything the DUA sweep (Algorithm 1)
// needs to continue after a coordinator crash — iteration τ, the phase
// cursor, both policies, the incremental aggregate, the cost history, the
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
//   - The decoder never trusts a length: every count is bounds-checked
//     against the remaining bytes BEFORE any allocation, and a corrupted or
//     truncated input yields a structured error, never a panic. The CRC32
//     trailer is verified first, so random corruption is rejected cheaply.

const (
	// checkpointMagic identifies a checkpoint file.
	checkpointMagic = "EDGECKPT"
	// checkpointVersion is the current format version. Version 2 added the
	// engine-kind byte after the phase cursor; version-1 snapshots (which
	// predate pluggable engines and were always Gauss-Seidel) still decode,
	// with Engine defaulting to EngineGaussSeidel.
	checkpointVersion = 2
	// maxCheckpointDim bounds each of N, U, F in a decoded checkpoint; a
	// hostile header must not drive a huge allocation.
	maxCheckpointDim = 1 << 20
	// maxCheckpointSize bounds the whole encoded snapshot (1 GiB).
	maxCheckpointSize = 1 << 30
)

// SBSHealthState is the serializable form of the BS agent's per-SBS
// liveness record plus its fault accounting, so a resumed distributed run
// keeps quarantine decisions and statistics instead of re-learning them.
type SBSHealthState struct {
	// ConsecMisses, Quarantined, ProbeSweep and HoldConv mirror the BS
	// agent's live health record (see internal/sim).
	ConsecMisses int
	Quarantined  bool
	ProbeSweep   int
	HoldConv     bool
	// The remaining fields mirror core.SBSFaultStats.
	Misses          int
	Retries         int
	Malformed       int
	QuarantineSpans int
	SkippedPhases   int
	FailedProbes    int
}

// Checkpoint is one recoverable snapshot of a DUA run. Sweep and Phase are
// the RESUME point: the next phase to execute is order position Phase of
// sweep Sweep (Phase 0 means a sweep boundary).
type Checkpoint struct {
	// Sweep and Phase locate the resume point in protocol time.
	Sweep int
	Phase int
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
	if n <= 0 || u <= 0 || f <= 0 || n > maxCheckpointDim || u > maxCheckpointDim || f > maxCheckpointDim {
		return fmt.Errorf("model: checkpoint: dimensions %dx%dx%d out of range", n, u, f)
	}
	if c.Sweep < 0 || c.Phase < 0 || c.Phase >= n {
		return fmt.Errorf("model: checkpoint: resume point sweep %d phase %d out of range (N=%d)", c.Sweep, c.Phase, n)
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

// MarshalBinary encodes the snapshot in the versioned binary format with a
// CRC32 trailer.
func (c *Checkpoint) MarshalBinary() ([]byte, error) {
	if err := c.preflight(); err != nil {
		return nil, err
	}
	n, u, f := c.Caching.N, c.Routing.T.U, c.Caching.F
	w := &ckptWriter{}
	w.raw([]byte(checkpointMagic))
	w.u16(checkpointVersion)
	w.u32(uint32(n))
	w.u32(uint32(u))
	w.u32(uint32(f))
	w.u64(c.InstanceFP)
	w.u32(uint32(c.Sweep))
	w.u32(uint32(c.Phase))
	w.u8(uint8(c.Engine))
	w.f64(c.PrevCost)
	if c.HasNoise {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.i64(c.NoiseSeed)
	w.u64(c.NoiseDraws)
	for _, v := range c.Order {
		w.u32(uint32(v))
	}
	w.words(c.Caching.bits)
	w.f64s(c.Routing.T.Data)
	w.f64s(c.Aggregate.Data)
	w.u32(uint32(len(c.History)))
	w.f64s(c.History)
	if c.Best != nil {
		w.u8(1)
		w.words(c.Best.Caching.bits)
		w.f64s(c.Best.Routing.T.Data)
		w.f64(c.Best.Cost.Edge)
		w.f64(c.Best.Cost.Backhaul)
		w.f64(c.Best.Cost.Total)
	} else {
		w.u8(0)
	}
	if len(c.Mu) == 0 {
		w.u8(0)
	} else {
		w.u8(1)
		for _, mu := range c.Mu {
			w.u32(uint32(len(mu)))
			w.f64s(mu)
		}
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
	if len(w.buf) > maxCheckpointSize {
		return nil, fmt.Errorf("model: checkpoint: encoded size %d exceeds limit %d", len(w.buf), maxCheckpointSize)
	}
	return w.buf, nil
}

// UnmarshalCheckpoint decodes a snapshot, verifying the CRC trailer first
// and bounds-checking every length against the remaining input before
// allocating. It returns a structured error for any truncated, corrupted
// or inconsistent input; it never panics.
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
	if r.err == nil && (n <= 0 || u <= 0 || f <= 0 || n > maxCheckpointDim || u > maxCheckpointDim || f > maxCheckpointDim) {
		return nil, fmt.Errorf("model: checkpoint: dimensions %dx%dx%d out of range", n, u, f)
	}
	ck := &Checkpoint{InstanceFP: r.u64("fingerprint")}
	ck.Sweep = int(r.u32("sweep"))
	ck.Phase = int(r.u32("phase"))
	if version >= 2 {
		// Version 1 predates pluggable engines; its snapshots were always
		// produced by the Gauss-Seidel sweep, which the zero value encodes.
		ck.Engine = EngineKind(r.u8("engine"))
		if r.err == nil && !ck.Engine.Valid() {
			return nil, fmt.Errorf("model: checkpoint: unknown engine kind %d", ck.Engine)
		}
	}
	ck.PrevCost = r.f64("prevCost")
	ck.HasNoise = r.u8("hasNoise") != 0
	ck.NoiseSeed = r.i64("noiseSeed")
	ck.NoiseDraws = r.u64("noiseDraws")
	if r.err != nil {
		return nil, r.err
	}
	if ck.Sweep < 0 || ck.Phase < 0 || ck.Phase >= n {
		return nil, fmt.Errorf("model: checkpoint: resume point sweep %d phase %d out of range (N=%d)", ck.Sweep, ck.Phase, n)
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

	ck.Caching = decodeCachingBits(r, n, f, "caching bits")
	routingData := r.f64s(int64(n)*int64(u)*int64(f), "routing tensor")
	aggData := r.f64s(int64(u)*int64(f), "aggregate")
	histLen := r.count("history length", 8)
	hist := r.f64s(int64(histLen), "history")
	if r.err != nil {
		return nil, r.err
	}
	ck.Routing = &RoutingPolicy{T: Tensor3{N: n, U: u, F: f, Data: routingData}}
	ck.Aggregate = Mat{U: u, F: f, Data: aggData}
	ck.History = hist

	if r.u8("best flag") != 0 && r.err == nil {
		bestCaching := decodeCachingBits(r, n, f, "best caching bits")
		bestRouting := r.f64s(int64(n)*int64(u)*int64(f), "best routing tensor")
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

	if r.u8("mu flag") != 0 && r.err == nil {
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
			h.Quarantined = r.u8("health") != 0
			h.ProbeSweep = int(r.u32("health"))
			h.HoldConv = r.u8("health") != 0
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

// ckptWriter accumulates the little-endian encoding.
type ckptWriter struct{ buf []byte }

func (w *ckptWriter) raw(b []byte) { w.buf = append(w.buf, b...) }
func (w *ckptWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
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
