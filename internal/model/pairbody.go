package model

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The pair body is the repository's one sparse-block codec. The wire's
// payload bodies (internal/transport) and version-3 checkpoints both write
// a block of dense float64 cells as
//
//	u32 nnz
//	nnz × (u32 index, u64 bits)   flat cell index, Float64bits; strictly ascending
//
// big-endian throughout. The encoder skips exactly the cells whose
// Float64bits is 0, so −0 and NaN travel as explicit pairs and every bit
// pattern survives. The decoder accepts only what the encoder produces —
// sorted unique in-range indexes, no explicit +0 pair, every promised
// pair present — so decode followed by encode reproduces the bytes.

// PairSize is the encoded size of one (index, bits) pair.
const PairSize = 4 + 8

// PairBodySize is the encoded size of a pair body of nnz pairs.
func PairBodySize(nnz int) int { return 4 + nnz*PairSize }

// CountPairs returns how many pairs the body of the block made of rows
// carries: the cells whose Float64bits is nonzero.
func CountPairs(rows ...[]float64) int {
	nnz := 0
	for _, row := range rows {
		for _, v := range row {
			if math.Float64bits(v) != 0 {
				nnz++
			}
		}
	}
	return nnz
}

// AppendPairBody appends the pair body of the block made of rows, laid end
// to end (the cell at rows[i][j] has index len(rows[0])+…+len(rows[i-1])+j);
// nnz must be CountPairs(rows...). The caller sizes buf, so appending stays
// inside one allocation. Appending (rather than writing at offsets) keeps
// the encoded values' provenance visible to edgelint's privflow analyzer.
func AppendPairBody(buf []byte, nnz int, rows ...[]float64) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(nnz))
	base := 0
	for _, row := range rows {
		for j, v := range row {
			bits := math.Float64bits(v)
			if bits == 0 {
				continue
			}
			buf = binary.BigEndian.AppendUint32(buf, uint32(base+j))
			buf = binary.BigEndian.AppendUint64(buf, bits)
		}
		base += len(row)
	}
	return buf
}

// Pairs are the validated entries of a pair body, aliasing its bytes.
type Pairs []byte

// Len returns the number of pairs.
func (p Pairs) Len() int { return len(p) / PairSize }

// At returns the k-th pair's cell index and value.
func (p Pairs) At(k int) (int, float64) {
	e := p[k*PairSize : (k+1)*PairSize]
	return int(binary.BigEndian.Uint32(e)), math.Float64frombits(binary.BigEndian.Uint64(e[4:]))
}

// CutPairBody reads the pair body of a block of cells entries off the
// front of data. It checks the promised pairs against the bytes present
// before reading any, then every index and value, and allocates nothing;
// it returns the pairs and the bytes after the body.
func CutPairBody(data []byte, cells uint64) (Pairs, []byte, error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("pair body: %d bytes, too short for the pair count", len(data))
	}
	nnz := uint64(binary.BigEndian.Uint32(data))
	data = data[4:]
	if nnz*PairSize > uint64(len(data)) {
		return nil, nil, fmt.Errorf("pair body: %d pairs need %d bytes, have %d", nnz, nnz*PairSize, len(data))
	}
	p := Pairs(data[:nnz*PairSize])
	next := uint64(0)
	for k := range p.Len() {
		e := p[k*PairSize:]
		idx := uint64(binary.BigEndian.Uint32(e))
		switch {
		case idx < next:
			return nil, nil, fmt.Errorf("pair body: index %d is not above its predecessor", idx)
		case idx >= cells:
			return nil, nil, fmt.Errorf("pair body: index %d outside the %d-cell block", idx, cells)
		case binary.BigEndian.Uint64(e[4:]) == 0:
			return nil, nil, fmt.Errorf("pair body: explicit zero at index %d", idx)
		}
		next = idx + 1
	}
	return p, data[len(p):], nil
}
