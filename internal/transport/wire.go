package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"edgecache/internal/model"
)

// The wire format is one binary codec owned by this package: a fixed-layout
// TCP frame around a sparse payload body. Every integer is big-endian.
//
// A frame is
//
//	u32 length    bytes after this field, at most maxFrameSize
//	u32 crc       CRC32-IEEE of the bytes after this field
//	u8  type      MsgType
//	u32 sweep
//	u32 phase
//	u16 n, n bytes  From
//	u16 n, n bytes  To
//	payload       the rest of the frame
//
// A payload body (AggregateAnnounce or PolicyUpload) is
//
//	u8  kind      payloadAnnounce or payloadUpload
//	u32 U, u32 F
//	bitmap        uploads only: ⌈F/8⌉ bytes, Cache[f] is bit f%8 of byte f/8
//	pair body     model's sparse-block codec over the U×F cells, index u·F+f:
//	              u32 nnz, then nnz × (u32 index, u64 bits), strictly ascending
//
// The pair body skips exactly the entries whose Float64bits is 0, so −0
// and NaN payloads travel bit for bit. The decoder accepts only what the
// encoder can produce — the right kind, a strict pair body (see
// model.CutPairBody), zero bitmap padding, no trailing bytes, a frame type
// it knows and a matching checksum — so decode followed by encode
// reproduces the input bytes exactly.

// maxFrameSize bounds inbound frames (16 MiB); a malformed or hostile
// length prefix must not drive an allocation of arbitrary size.
const maxFrameSize = 16 << 20

const (
	// frameFixed is the frame's fixed part after the length field: crc,
	// type, sweep, phase and the two name lengths.
	frameFixed = 4 + 1 + 4 + 4 + 2 + 2
	// frameChunk is how much of a frame body readFrame commits before the
	// bytes arrive; larger bodies grow as they are read, so a length
	// prefix alone cannot reserve maxFrameSize per connection.
	frameChunk = 64 << 10

	payloadAnnounce byte = 1
	payloadUpload   byte = 2
	// bodyFixed is the body's fixed part: kind, U, F and the pair body's
	// nnz.
	bodyFixed = 1 + 4 + 4 + 4
)

var (
	errShortFrame = errors.New("transport: frame shorter than its header")
	// errPayloadType names no type: formatting v would make every caller's
	// payload value escape to the heap.
	errPayloadType = errors.New("transport: payload must be an AggregateAnnounce or a PolicyUpload (a pointer to one to decode)")
)

// encodeFrame renders a message as one frame. It checks only what the
// layout cannot carry (negative or over-u32 sweep and phase, names over
// 64 KiB, frames over maxFrameSize); readFrame owns the semantic checks.
func encodeFrame(m Message) ([]byte, error) {
	if m.Sweep < 0 || m.Phase < 0 || uint64(m.Sweep) > math.MaxUint32 || uint64(m.Phase) > math.MaxUint32 {
		return nil, fmt.Errorf("transport: encode frame: sweep %d or phase %d outside [0, 2^32)", m.Sweep, m.Phase)
	}
	if len(m.From) > math.MaxUint16 || len(m.To) > math.MaxUint16 {
		return nil, fmt.Errorf("transport: encode frame: endpoint name over %d bytes", math.MaxUint16)
	}
	size := frameFixed + len(m.From) + len(m.To) + len(m.Payload)
	if size > maxFrameSize {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit %d", size, maxFrameSize)
	}
	frame := make([]byte, 8, 4+size)
	binary.BigEndian.PutUint32(frame, uint32(size))
	frame = append(frame, byte(m.Type))
	frame = binary.BigEndian.AppendUint32(frame, uint32(m.Sweep))
	frame = binary.BigEndian.AppendUint32(frame, uint32(m.Phase))
	frame = binary.BigEndian.AppendUint16(frame, uint16(len(m.From)))
	frame = append(frame, m.From...)
	frame = binary.BigEndian.AppendUint16(frame, uint16(len(m.To)))
	frame = append(frame, m.To...)
	frame = append(frame, m.Payload...)
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[8:]))
	return frame, nil
}

// readFrame reads and verifies one frame. The returned payload aliases a
// buffer owned by the message.
func readFrame(r io.Reader) (Message, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return Message{}, err
	}
	size := binary.BigEndian.Uint32(prefix[:])
	if size > maxFrameSize {
		return Message{}, fmt.Errorf("transport: inbound frame of %d bytes exceeds limit %d", size, maxFrameSize)
	}
	if size < frameFixed {
		return Message{}, errShortFrame
	}
	body, err := readBody(r, int(size))
	if err != nil {
		return Message{}, err
	}
	if got, want := crc32.ChecksumIEEE(body[4:]), binary.BigEndian.Uint32(body); got != want {
		return Message{}, fmt.Errorf("transport: frame checksum %08x, want %08x", got, want)
	}
	m := Message{
		Type:  MsgType(body[4]),
		Sweep: int(binary.BigEndian.Uint32(body[5:])),
		Phase: int(binary.BigEndian.Uint32(body[9:])),
	}
	if m.Type == 0 || m.Type > MsgStateAck {
		return Message{}, fmt.Errorf("transport: frame has unknown message type %d", uint8(m.Type))
	}
	rest := body[13:]
	var ok bool
	if m.From, rest, ok = cutName(rest); !ok {
		return Message{}, errShortFrame
	}
	if m.To, rest, ok = cutName(rest); !ok {
		return Message{}, errShortFrame
	}
	if len(rest) > 0 {
		m.Payload = rest
	}
	return m, nil
}

// readBody reads exactly size bytes, committing at most frameChunk bytes
// (then doubling) ahead of the data actually received.
func readBody(r io.Reader, size int) ([]byte, error) {
	buf := make([]byte, min(size, frameChunk))
	n := 0
	for {
		k, err := io.ReadFull(r, buf[n:])
		n += k
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if n == size {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(size-n, n))...)
	}
}

// cutName splits a u16-length-prefixed string off b.
func cutName(b []byte) (string, []byte, bool) {
	if len(b) < 2 {
		return "", nil, false
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, false
	}
	return string(b[2 : 2+n]), b[2+n:], true
}

// EncodePayload renders an AggregateAnnounce or a PolicyUpload as a sparse
// body. Rows must be rectangular, and an upload's routing rows as long as
// its cache vector. The result is the only allocation: one buffer of the
// exact size, returned to the caller and kept nowhere else.
func EncodePayload(v any) ([]byte, error) {
	switch p := v.(type) {
	case AggregateAnnounce:
		return encodeBody(payloadAnnounce, nil, p.YMinus)
	case PolicyUpload:
		return encodeBody(payloadUpload, p.Cache, p.Routing)
	default:
		return nil, errPayloadType
	}
}

func encodeBody(kind byte, cache []bool, rows [][]float64) ([]byte, error) {
	u, f := len(rows), len(cache)
	if kind == payloadAnnounce && u > 0 {
		f = len(rows[0])
	}
	if err := checkShape(kind, uint64(u), uint64(f)); err != nil {
		return nil, fmt.Errorf("transport: encode payload: %w", err)
	}
	for i, row := range rows {
		if len(row) != f {
			return nil, fmt.Errorf("transport: encode payload: row %d has %d entries, want %d", i, len(row), f)
		}
	}
	nnz := model.CountPairs(rows...)
	size := bodyFixed + bitmapLen(kind, f) + nnz*model.PairSize
	if size > maxFrameSize {
		return nil, fmt.Errorf("transport: payload of %d bytes exceeds limit %d", size, maxFrameSize)
	}
	// Appending (rather than writing at offsets) keeps the encoded values'
	// provenance visible to edgelint's privflow analyzer.
	buf := make([]byte, 0, size)
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(u))
	buf = binary.BigEndian.AppendUint32(buf, uint32(f))
	if kind == payloadUpload {
		for i := 0; i < f; i += 8 {
			var b byte
			for j := i; j < f && j < i+8; j++ {
				if cache[j] {
					b |= 1 << (j - i)
				}
			}
			buf = append(buf, b)
		}
	}
	return model.AppendPairBody(buf, nnz, rows...), nil
}

// checkShape bounds a body's declared U×F: the dense block it decodes to,
// row headers included, must fit maxFrameSize; rows need columns; and an
// announce without rows declares no columns (it could not carry them).
func checkShape(kind byte, u, f uint64) error {
	if f > maxFrameSize || u*(24+8*f) > maxFrameSize {
		return fmt.Errorf("%dx%d block exceeds the %d-byte limit", u, f, maxFrameSize)
	}
	if u > 0 && f == 0 {
		return fmt.Errorf("%d rows without columns", u)
	}
	if kind == payloadAnnounce && u == 0 && f != 0 {
		return fmt.Errorf("announce without rows declares %d columns", f)
	}
	return nil
}

func bitmapLen(kind byte, f int) int {
	if kind != payloadUpload {
		return 0
	}
	return (f + 7) / 8
}

// DecodePayload decodes a body into out, which must be *AggregateAnnounce
// or *PolicyUpload matching the body's kind. The whole body is validated
// before out is touched, so a rejected body leaves out as it was. When
// out's rows (and an upload's cache) already have the body's U×F shape
// they are filled in place — entries absent from the body are zeroed — and
// the decode allocates nothing; otherwise fresh ones are allocated, so a
// caller that needs its own shape compares the result's.
func DecodePayload(data []byte, out any) error {
	if len(data) > maxFrameSize {
		return fmt.Errorf("transport: payload of %d bytes exceeds limit %d", len(data), maxFrameSize)
	}
	switch p := out.(type) {
	case *AggregateAnnounce:
		b, err := parseBody(data, payloadAnnounce)
		if err != nil {
			return err
		}
		p.YMinus = b.fillRows(p.YMinus)
	case *PolicyUpload:
		b, err := parseBody(data, payloadUpload)
		if err != nil {
			return err
		}
		p.Cache = b.fillCache(p.Cache)
		p.Routing = b.fillRows(p.Routing)
	default:
		return errPayloadType
	}
	return nil
}

// body is a validated payload body; bitmap and pairs alias the input.
type body struct {
	u, f   int
	bitmap []byte
	pairs  model.Pairs
}

func parseBody(data []byte, kind byte) (body, error) {
	if len(data) < bodyFixed {
		return body{}, fmt.Errorf("transport: decode payload: %d bytes, shorter than the %d-byte header", len(data), bodyFixed)
	}
	if data[0] != kind {
		return body{}, fmt.Errorf("transport: decode payload: kind %d, want %d", data[0], kind)
	}
	u, f := uint64(binary.BigEndian.Uint32(data[1:])), uint64(binary.BigEndian.Uint32(data[5:]))
	if err := checkShape(kind, u, f); err != nil {
		return body{}, fmt.Errorf("transport: decode payload: %w", err)
	}
	b := body{u: int(u), f: int(f)}
	off := 9
	if nb := bitmapLen(kind, b.f); nb > 0 {
		if len(data) < off+nb {
			return body{}, fmt.Errorf("transport: decode payload: %d bytes, too short for a %d-entry cache", len(data), b.f)
		}
		b.bitmap = data[off : off+nb]
		if pad := b.f % 8; pad != 0 && b.bitmap[nb-1]>>pad != 0 {
			return body{}, errors.New("transport: decode payload: cache bitmap padding is set")
		}
		off += nb
	}
	pairs, rest, err := model.CutPairBody(data[off:], u*f)
	if err != nil {
		return body{}, fmt.Errorf("transport: decode payload: %w", err)
	}
	if len(rest) != 0 {
		return body{}, fmt.Errorf("transport: decode payload: %d trailing bytes after the pair body", len(rest))
	}
	b.pairs = pairs
	return b, nil
}

// fillRows writes the body's entries into rows when they have the body's
// shape (zeroing the rest), or into a fresh U×F block otherwise.
func (b body) fillRows(rows [][]float64) [][]float64 {
	if hasShape(rows, b.u, b.f) {
		for _, row := range rows {
			clear(row)
		}
	} else {
		rows = make([][]float64, b.u)
		backing := make([]float64, b.u*b.f)
		for i := range rows {
			rows[i] = backing[i*b.f : (i+1)*b.f : (i+1)*b.f]
		}
	}
	for k := range b.pairs.Len() {
		idx, v := b.pairs.At(k)
		rows[idx/b.f][idx%b.f] = v
	}
	return rows
}

func (b body) fillCache(cache []bool) []bool {
	if len(cache) != b.f {
		cache = make([]bool, b.f)
	}
	for j := range cache {
		cache[j] = b.bitmap[j/8]>>(j%8)&1 == 1
	}
	return cache
}

func hasShape(rows [][]float64, u, f int) bool {
	if len(rows) != u {
		return false
	}
	for _, row := range rows {
		if len(row) != f {
			return false
		}
	}
	return true
}
