package model

import (
	"fmt"
	"math/bits"
)

// CachingPolicy holds the binary caching decisions x_nf: Get(n, f) reports
// whether SBS n stores content f. The rows are packed into a single
// []uint64 bitset (one cache line covers 512 contents), so Count is a
// popcount sweep and DiffCount an XOR-popcount — both branch-free.
type CachingPolicy struct {
	// N and F are the numbers of SBSs and contents.
	N, F int
	// wordsPerRow is the per-SBS stride in 64-bit words.
	wordsPerRow int
	// bits is the packed storage: SBS n's row occupies
	// bits[n*wordsPerRow : (n+1)*wordsPerRow], content f at bit f%64 of
	// word f/64.
	bits []uint64
}

// NewCachingPolicy returns an all-empty caching policy sized for in.
func NewCachingPolicy(in *Instance) *CachingPolicy {
	return NewCachingPolicyDims(in.N, in.F)
}

// NewCachingPolicyDims returns an all-empty N×F caching policy.
func NewCachingPolicyDims(n, f int) *CachingPolicy {
	w := (f + 63) / 64
	return &CachingPolicy{N: n, F: f, wordsPerRow: w, bits: make([]uint64, n*w)}
}

// Get reports whether SBS n caches content f.
//
//edgecache:noalloc
func (p *CachingPolicy) Get(n, f int) bool {
	return p.bits[n*p.wordsPerRow+f/64]&(1<<(uint(f)%64)) != 0
}

// Set stores the caching decision for (n, f).
//
//edgecache:noalloc
func (p *CachingPolicy) Set(n, f int, cached bool) {
	w := &p.bits[n*p.wordsPerRow+f/64]
	mask := uint64(1) << (uint(f) % 64)
	if cached {
		*w |= mask
	} else {
		*w &^= mask
	}
}

// SetRow replaces SBS n's cache vector from a []bool of length F. It is
// allocation-free, so the coordinator uses it in the sweep hot path.
//
//edgecache:noalloc
func (p *CachingPolicy) SetRow(n int, row []bool) {
	if len(row) != p.F {
		panic(fmt.Sprintf("model: SetRow got %d entries, want F=%d", len(row), p.F))
	}
	base := n * p.wordsPerRow
	for w := 0; w < p.wordsPerRow; w++ {
		var word uint64
		lo := w * 64
		hi := lo + 64
		if hi > p.F {
			hi = p.F
		}
		for f := lo; f < hi; f++ {
			if row[f] {
				word |= 1 << (uint(f) % 64)
			}
		}
		p.bits[base+w] = word
	}
}

// RowBools materializes SBS n's cache vector as a fresh []bool.
func (p *CachingPolicy) RowBools(n int) []bool {
	row := make([]bool, p.F)
	for f := 0; f < p.F; f++ {
		row[f] = p.Get(n, f)
	}
	return row
}

// Bools materializes the full policy as nested rows (the stable
// serialization shape).
func (p *CachingPolicy) Bools() [][]bool {
	rows := make([][]bool, p.N)
	for n := range rows {
		rows[n] = p.RowBools(n)
	}
	return rows
}

// Clone returns a deep copy of the policy.
func (p *CachingPolicy) Clone() *CachingPolicy {
	return &CachingPolicy{
		N: p.N, F: p.F, wordsPerRow: p.wordsPerRow,
		bits: append([]uint64(nil), p.bits...),
	}
}

// Count returns the number of contents cached at SBS n (a popcount sweep
// over the row's words).
func (p *CachingPolicy) Count(n int) int {
	count := 0
	for _, w := range p.bits[n*p.wordsPerRow : (n+1)*p.wordsPerRow] {
		count += bits.OnesCount64(w)
	}
	return count
}

// Contents returns the cached contents of SBS n in increasing order.
func (p *CachingPolicy) Contents(n int) []int {
	var out []int
	base := n * p.wordsPerRow
	for wi := 0; wi < p.wordsPerRow; wi++ {
		w := p.bits[base+wi]
		for w != 0 {
			f := wi*64 + bits.TrailingZeros64(w)
			out = append(out, f)
			w &= w - 1
		}
	}
	return out
}

// DiffCount returns the number of (n, f) placements present in exactly one
// of the two policies (the Hamming distance of the bitsets). Shapes must
// match.
func (p *CachingPolicy) DiffCount(o *CachingPolicy) int {
	if p.N != o.N || p.F != o.F {
		panic(fmt.Sprintf("model: DiffCount shape mismatch: %dx%d vs %dx%d", p.N, p.F, o.N, o.F))
	}
	diff := 0
	for i := range p.bits {
		diff += bits.OnesCount64(p.bits[i] ^ o.bits[i])
	}
	return diff
}

// RoutingPolicy holds the fractional routing decisions y_nuf ∈ [0,1]:
// At(n, u, f) is the fraction of MU group u's demand for content f that
// SBS n serves. The decisions live in a flat N×U×F Tensor3; SBS(n) exposes
// one SBS's U×F block as a zero-copy Mat view.
type RoutingPolicy struct {
	// T is the backing tensor. Direct Data access is allowed in tight
	// loops; prefer the accessors elsewhere.
	T Tensor3
}

// NewRoutingPolicy returns an all-zero routing policy sized for in.
func NewRoutingPolicy(in *Instance) *RoutingPolicy {
	return &RoutingPolicy{T: NewTensor3(in.N, in.U, in.F)}
}

// At returns y_nuf.
//
//edgecache:noalloc
func (p *RoutingPolicy) At(n, u, f int) float64 { return p.T.At(n, u, f) }

// Set stores y_nuf.
//
//edgecache:noalloc
func (p *RoutingPolicy) Set(n, u, f int, v float64) { p.T.Set(n, u, f, v) }

// Clone returns a deep copy of the policy.
func (p *RoutingPolicy) Clone() *RoutingPolicy {
	return &RoutingPolicy{T: p.T.Clone()}
}

// SetSBS replaces SBS n's routing block with a copy of y (U×F). It is
// allocation-free: the data is copied into the tensor's backing array.
//
//edgecache:noalloc
func (p *RoutingPolicy) SetSBS(n int, y Mat) {
	p.T.SBSRow(n).CopyFrom(y)
}

// SBS returns SBS n's routing block as a Mat view without copying. Callers
// must not mutate the result unless they own the policy.
//
//edgecache:noalloc
func (p *RoutingPolicy) SBS(n int) Mat { return p.T.SBSRow(n) }

// Blocks materializes the policy as nested per-SBS blocks (the stable
// serialization shape).
func (p *RoutingPolicy) Blocks() [][][]float64 {
	out := make([][][]float64, p.T.N)
	for n := range out {
		out[n] = p.T.SBSRow(n).Rows()
	}
	return out
}

// Aggregate returns Σ_n y_nuf·l_nu as a U×F matrix: the total fraction of
// each (u,f) demand served at the edge. This is the quantity the BS
// assembles and broadcasts in the distributed algorithm.
func (p *RoutingPolicy) Aggregate(in *Instance) Mat {
	agg := NewMat(in.U, in.F)
	p.AggregateInto(in, agg)
	return agg
}

// AggregateInto computes Aggregate into a caller-owned U×F matrix without
// allocating. dst is overwritten.
//
//edgecache:noalloc
func (p *RoutingPolicy) AggregateInto(in *Instance, dst Mat) {
	dst.Zero()
	for n := 0; n < in.N; n++ {
		block := p.T.SBSRow(n)
		for u := 0; u < in.U; u++ {
			if !in.Links[n][u] {
				continue
			}
			dstRow := dst.Row(u)
			srcRow := block.Row(u)
			for f := range dstRow {
				dstRow[f] += srcRow[f]
			}
		}
	}
}

// Load returns Σ_u Σ_f y_nuf·l_nu·λ_uf, the bandwidth consumed at SBS n
// (left side of eq. 3). Entries on (n,u) pairs without a link are masked
// out, mirroring Aggregate: an off-link routing entry is structurally
// unservable (it already trips the no-link feasibility check), so it must
// not inflate the bandwidth accounting either.
//
//edgecache:noalloc
func (p *RoutingPolicy) Load(in *Instance, n int) float64 {
	return blockLoad(in, n, p.T.SBSRow(n))
}

// blockLoad is Load for SBS n's routing block given on its own.
//
//edgecache:noalloc
func blockLoad(in *Instance, n int, block Mat) float64 {
	var load float64
	for u := 0; u < in.U; u++ {
		if !in.Links[n][u] {
			continue
		}
		row := block.Row(u)
		demand := in.Demand[u]
		for f := range row {
			load += row[f] * demand[f]
		}
	}
	return load
}

// AggregateTracker maintains the running masked aggregate Σ_n y_nuf·l_nu
// across a Gauss-Seidel sweep so each phase costs O(U·F) instead of an
// O(N·U·F) recompute of y_{-n}. The protocol per phase n is:
//
//	tracker.YMinusInto(in, y, n, yMinus)   // y_{-n} = agg − y_n (masked)
//	... SBS n computes its new block from yMinus ...
//	tracker.Install(in, y, n, yMinus, upload)
//
// Install writes the upload into y and rebuilds agg as yMinus + upload
// (masked), so stale mass from the replaced block never accumulates: each
// block's contribution is subtracted exactly once and re-added from fresh
// values. The in-process Coordinator and the message-passing BS agent run
// the identical update sequence, which keeps the two deployments
// bit-for-bit equivalent. The tracker holds the running sums and nothing
// else: core's solve memo keys on the residual capacities a solve reads
// from y_{-n}, not on tracker state (see core.Subproblem).
type AggregateTracker struct {
	agg Mat
}

// NewAggregateTracker returns a tracker for an all-zero routing policy
// sized for in.
func NewAggregateTracker(in *Instance) *AggregateTracker {
	return &AggregateTracker{agg: NewMat(in.U, in.F)}
}

// BeginPhase does nothing.
//
// Deprecated: the tracker keeps no phase clock; nothing in this module
// calls BeginPhase. It goes once cmd/edgebench's replay stops calling it.
func (t *AggregateTracker) BeginPhase() {}

// MarkBlockDirty does nothing.
//
// Deprecated: the tracker keeps no block stamps; nothing in this module
// calls MarkBlockDirty. It goes once cmd/edgebench's replay stops calling
// it.
func (t *AggregateTracker) MarkBlockDirty(n int) {}

// Aggregate exposes the current aggregate as a view. Callers must not
// mutate it.
//
//edgecache:noalloc
func (t *AggregateTracker) Aggregate() Mat { return t.agg }

// Restore overwrites the tracker with a serialized aggregate (a
// checkpoint's). Resume must NOT rebuild it from the policy: the incremental
// YMinusInto/Install path accumulates in a different floating-point order
// than a full rebuild, and the bit-identical resume guarantee requires the
// exact running sums.
func (t *AggregateTracker) Restore(src Mat) { t.agg.CopyFrom(src) }

// YMinusInto computes y_{-n} = aggregate − SBS n's masked block into dst
// without allocating. dst is overwritten.
//
//edgecache:noalloc
func (t *AggregateTracker) YMinusInto(in *Instance, y *RoutingPolicy, n int, dst Mat) {
	dst.CopyFrom(t.agg)
	block := y.T.SBSRow(n)
	for u := 0; u < in.U; u++ {
		if !in.Links[n][u] {
			continue
		}
		dstRow := dst.Row(u)
		srcRow := block.Row(u)
		for f := range dstRow {
			dstRow[f] -= srcRow[f]
		}
	}
}

// Install stores upload as SBS n's block in y and advances the aggregate
// to yMinus + upload (masked by n's links), all without allocating.
// yMinus must be the matrix YMinusInto produced for this phase. Off-link
// rows are skipped: there yMinus is YMinusInto's verbatim copy of the
// aggregate, so the reference CopyFrom-then-add could change no bit.
//
//edgecache:noalloc
func (t *AggregateTracker) Install(in *Instance, y *RoutingPolicy, n int, yMinus, upload Mat) {
	y.T.SBSRow(n).CopyFrom(upload)
	for u, linked := range in.Links[n] {
		if !linked {
			continue
		}
		aggRow := t.agg.Row(u)
		ymRow := yMinus.Row(u)
		upRow := upload.Row(u)
		for f := range aggRow {
			aggRow[f] = ymRow[f] + upRow[f]
		}
	}
}

// Swap exchanges the backing tensors of p and o without copying. The
// Jacobi engines use it at the end of a round to promote the freshly
// written next-round policy while recycling the previous round's storage
// as the next scratch buffer. Shapes must match.
//
//edgecache:noalloc
func (p *RoutingPolicy) Swap(o *RoutingPolicy) {
	if p.T.N != o.T.N || p.T.U != o.T.U || p.T.F != o.T.F {
		panic(fmt.Sprintf("model: Swap shape mismatch: %dx%dx%d vs %dx%dx%d",
			p.T.N, p.T.U, p.T.F, o.T.N, o.T.U, o.T.F))
	}
	p.T, o.T = o.T, p.T
}

// RebuildRows recomputes the aggregate rows u ∈ [u0, u1) from y. Each
// entry is accumulated over n in ascending order, starting from +0 — the
// same per-entry floating-point order as AggregateInto — so rebuilding the
// full range in one call, or sharding disjoint row ranges across
// goroutines, produces bit-identical results regardless of the
// partitioning. This is the merge step of the Jacobi round: the per-SBS
// blocks were written concurrently, and the reduction order is fixed by
// construction, not by scheduling.
//
//edgecache:noalloc
func (t *AggregateTracker) RebuildRows(in *Instance, y *RoutingPolicy, u0, u1 int) {
	for u := u0; u < u1; u++ {
		aggRow := t.agg.Row(u)
		for f := range aggRow {
			aggRow[f] = 0
		}
		for n := 0; n < in.N; n++ {
			if !in.Links[n][u] {
				continue
			}
			srcRow := y.T.SBSRow(n).Row(u)
			for f := range aggRow {
				aggRow[f] += srcRow[f]
			}
		}
	}
}

// RepairOverserveRows restores the no-overserve constraint (4) on rows
// u ∈ [u0, u1): wherever the aggregate exceeds one, every SBS's share of
// that demand is scaled down proportionally, and the aggregate entry is
// then recomputed from the repaired values with the same n-ascending
// per-entry order as RebuildRows. The recompute (rather than writing 1.0)
// keeps the tracker bit-identical to a full AggregateInto rebuild of the
// repaired policy, which is what keeps tracker-based cost evaluation
// bit-equal to the reference TotalServingCost path. Disjoint row ranges
// touch disjoint policy and aggregate memory, so shards may run
// concurrently.
//
//edgecache:noalloc
func (t *AggregateTracker) RepairOverserveRows(in *Instance, y *RoutingPolicy, u0, u1 int) {
	for u := u0; u < u1; u++ {
		aggRow := t.agg.Row(u)
		for f := range aggRow {
			if aggRow[f] <= 1+1e-12 {
				continue
			}
			factor := 1 / aggRow[f]
			var sum float64
			for n := 0; n < in.N; n++ {
				if !in.Links[n][u] {
					continue
				}
				row := y.T.SBSRow(n).Row(u)
				row[f] *= factor
				sum += row[f]
			}
			aggRow[f] = sum
		}
	}
}

// Solution bundles one pair of caching and routing policies together with
// the serving cost it achieves.
type Solution struct {
	Caching *CachingPolicy
	Routing *RoutingPolicy
	Cost    CostBreakdown
}

// Clone returns a deep copy of the solution.
func (s *Solution) Clone() *Solution {
	if s == nil {
		return nil
	}
	return &Solution{Caching: s.Caching.Clone(), Routing: s.Routing.Clone(), Cost: s.Cost}
}

// String summarizes the solution in one line.
func (s *Solution) String() string {
	return fmt.Sprintf("cost=%.2f (edge=%.2f backhaul=%.2f)", s.Cost.Total, s.Cost.Edge, s.Cost.Backhaul)
}
