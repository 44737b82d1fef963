package model

import "fmt"

// This file is the flat dense-tensor substrate the solver layers run on.
// The hot paths of the repository — cost evaluation (eq. 5-7), the
// Gauss-Seidel sweep (Algorithm 1) and the per-SBS sub-problem — iterate
// U×F and N×U×F arrays billions of times at scale. Nested slices
// ([][]float64, [][][]float64) put every row behind a pointer: loads miss
// the cache, bounds checks repeat per level, and building one requires one
// allocation per row. Mat and Tensor3 store the same data in a single
// contiguous []float64 with stride indexing, so a full traversal is one
// linear scan and building one is a single allocation.
//
// Stride convention (row-major, matching the paper's index order n, u, f):
//
//	Mat:     element (u, f)    lives at Data[u*F + f]
//	Tensor3: element (n, u, f) lives at Data[(n*U + u)*F + f]
//
// Both types are value types holding a slice header: copying a Mat copies
// the header, not the data, exactly like a slice. Views returned by Row and
// SBSRow alias the backing array — mutating a view mutates the tensor.

// Mat is a dense U×F matrix over a single contiguous backing slice. The
// zero value is an empty matrix; use NewMat for a sized one.
type Mat struct {
	// U and F are the row and column counts.
	U, F int
	// Data is the row-major backing storage, len U·F. Direct access is
	// allowed only inside internal/model (the flataccess analyzer enforces
	// this); everything else goes through At/Set/Add/Row or a dedicated
	// accessor added here.
	Data []float64
}

// NewMat returns a zeroed U×F matrix backed by one allocation.
func NewMat(u, f int) Mat {
	return Mat{U: u, F: f, Data: make([]float64, u*f)}
}

// MatFromRows copies a nested [][]float64 into a flat Mat, validating that
// the rows are rectangular.
func MatFromRows(rows [][]float64) (Mat, error) {
	u := len(rows)
	if u == 0 {
		return Mat{}, nil
	}
	f := len(rows[0])
	m := NewMat(u, f)
	for i, row := range rows {
		if len(row) != f {
			return Mat{}, fmt.Errorf("model: row %d has %d entries, want %d", i, len(row), f)
		}
		copy(m.Row(i), row)
	}
	return m, nil
}

// At returns element (u, f).
//
//edgecache:noalloc
func (m Mat) At(u, f int) float64 { return m.Data[u*m.F+f] }

// Set stores v at element (u, f).
//
//edgecache:noalloc
func (m Mat) Set(u, f int, v float64) { m.Data[u*m.F+f] = v }

// Add accumulates v into element (u, f).
//
//edgecache:noalloc
func (m Mat) Add(u, f int, v float64) { m.Data[u*m.F+f] += v }

// Row returns row u as a slice view aliasing the backing array.
//
//edgecache:noalloc
func (m Mat) Row(u int) []float64 { return m.Data[u*m.F : (u+1)*m.F : (u+1)*m.F] }

// Rows materializes the matrix as a fresh nested [][]float64 (one backing
// allocation plus the row headers). Used at codec/transport boundaries;
// not for hot paths.
func (m Mat) Rows() [][]float64 {
	rows := make([][]float64, m.U)
	backing := append([]float64(nil), m.Data...)
	for u := range rows {
		rows[u], backing = backing[:m.F:m.F], backing[m.F:]
	}
	return rows
}

// Clone returns a deep copy.
func (m Mat) Clone() Mat {
	return Mat{U: m.U, F: m.F, Data: append([]float64(nil), m.Data...)}
}

// CopyFrom overwrites m with src's contents. Shapes must match.
//
//edgecache:noalloc
func (m Mat) CopyFrom(src Mat) {
	if m.U != src.U || m.F != src.F {
		panic(fmt.Sprintf("model: CopyFrom shape mismatch: %dx%d vs %dx%d", m.U, m.F, src.U, src.F))
	}
	copy(m.Data, src.Data)
}

// AddFrom accumulates src into m element-wise. Shapes must match. This is
// the whole-matrix accessor the multi-BS sweep uses to fold a foreign
// aggregate into y⁻ without touching the backing slice directly.
//
//edgecache:noalloc
func (m Mat) AddFrom(src Mat) {
	if m.U != src.U || m.F != src.F {
		panic(fmt.Sprintf("model: AddFrom shape mismatch: %dx%d vs %dx%d", m.U, m.F, src.U, src.F))
	}
	for i, v := range src.Data {
		m.Data[i] += v
	}
}

// Zero clears every element in place.
//
//edgecache:noalloc
func (m Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Tensor3 is a dense N×U×F tensor over a single contiguous backing slice.
type Tensor3 struct {
	// N, U and F are the extents of the three axes.
	N, U, F int
	// Data is the row-major backing storage, len N·U·F.
	Data []float64
}

// NewTensor3 returns a zeroed N×U×F tensor backed by one allocation.
func NewTensor3(n, u, f int) Tensor3 {
	return Tensor3{N: n, U: u, F: f, Data: make([]float64, n*u*f)}
}

// At returns element (n, u, f).
//
//edgecache:noalloc
func (t Tensor3) At(n, u, f int) float64 { return t.Data[(n*t.U+u)*t.F+f] }

// Set stores v at element (n, u, f).
//
//edgecache:noalloc
func (t Tensor3) Set(n, u, f int, v float64) { t.Data[(n*t.U+u)*t.F+f] = v }

// SBSRow returns the U×F block of SBS n as a Mat view aliasing the backing
// array: mutations through the view mutate the tensor. This is the accessor
// that replaces `Route[n]` from the nested-slice era.
//
//edgecache:noalloc
func (t Tensor3) SBSRow(n int) Mat {
	base := n * t.U * t.F
	return Mat{U: t.U, F: t.F, Data: t.Data[base : base+t.U*t.F : base+t.U*t.F]}
}

// Clone returns a deep copy.
func (t Tensor3) Clone() Tensor3 {
	return Tensor3{N: t.N, U: t.U, F: t.F, Data: append([]float64(nil), t.Data...)}
}

// Zero clears every element in place.
func (t Tensor3) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}
