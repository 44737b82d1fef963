package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// wireSeed is one named input of the wire fuzz corpus.
type wireSeed struct {
	name string
	data []byte
}

// wireSeeds returns the committed corpus of the wire fuzz targets: whole
// frames (which reach DecodePayload through readFrame) and bare bodies
// (which reach it directly; a mutated frame rarely keeps its checksum).
func wireSeeds(t testing.TB) []wireSeed {
	frame := func(typ MsgType, payload []byte) []byte {
		b, err := encodeFrame(Message{Type: typ, From: "bs", To: "sbs-0", Sweep: 2, Phase: 1, Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := math.Float64bits(0.5)
	announce := mustEncode(t, AggregateAnnounce{YMinus: [][]float64{{0.5, 0}, {1, 0.25}}})
	upload := mustEncode(t, PolicyUpload{Cache: []bool{true, false, true}, Routing: [][]float64{{0.5, 0, 0}, {0, 0, 1}}})
	valid := frame(MsgPhaseStart, announce)
	badCRC := append([]byte(nil), valid...)
	badCRC[len(badCRC)-1] ^= 1
	overLimit := binary.BigEndian.AppendUint32(nil, maxFrameSize+1)
	overLimit = append(overLimit, valid[4:]...)
	return []wireSeed{
		{"seed-valid-announce", valid},
		{"seed-valid-upload", frame(MsgPolicyUpload, upload)},
		{"seed-negative-zero", rawBody(payloadAnnounce, 1, 2, nil, pair{1, math.Float64bits(math.Copysign(0, -1))})},
		{"seed-nan", rawBody(payloadUpload, 1, 2, []byte{0x01}, pair{0, 0x7ff8_0000_0000_0001})},
		{"seed-unsorted-pair", rawBody(payloadAnnounce, 2, 2, nil, pair{3, one}, pair{1, one})},
		{"seed-index-equal-uf", rawBody(payloadAnnounce, 2, 2, nil, pair{4, one})},
		{"seed-explicit-zero", rawBody(payloadAnnounce, 2, 2, nil, pair{2, 0})},
		{"seed-bitmap-padding", rawBody(payloadUpload, 1, 3, []byte{0x09}, pair{0, one})},
		{"seed-trailing-byte", append(append([]byte(nil), announce...), 0)},
		{"seed-truncated-frame", valid[:len(valid)-3]},
		{"seed-bad-crc", badCRC},
		{"seed-over-limit-length", overLimit},
	}
}

// addWireSeeds registers the corpus with a fuzz target.
func addWireSeeds(f *testing.F) {
	for _, s := range wireSeeds(f) {
		f.Add(s.data)
	}
}

// FuzzFrame hardens the whole wire format: arbitrary bytes go to
// readFrame, an accepted frame's payload to DecodePayload for both body
// kinds, and the bytes themselves to DecodePayload too. Nothing may panic,
// allocation stays within the bounds checkFrame and checkPayload state,
// and anything accepted re-encodes to the identical bytes. Run with
// `go test -fuzz=FuzzFrame ./internal/transport`.
func FuzzFrame(f *testing.F) {
	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, ok := checkFrame(t, data); ok {
			checkPayload(t, m.Payload)
		}
		checkPayload(t, data)
	})
}

// FuzzReadFrame is the frame layer of FuzzFrame alone, kept so its
// committed seeds keep replaying.
func FuzzReadFrame(f *testing.F) {
	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { checkFrame(t, data) })
}

// FuzzDecodePayload is the body layer of FuzzFrame alone, kept so its
// committed seeds keep replaying.
func FuzzDecodePayload(f *testing.F) {
	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { checkPayload(t, data) })
}

// allocated returns the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocSlack covers what a call allocates beyond its data-proportional
// bytes: small fixed allocations (error values, name strings) and the
// rounding of each large allocation up to whole 8 KiB pages.
const allocSlack = 24 << 10

// checkFrame reads data as one frame. A frame may allocate about twice
// what arrived (the body grows by doubling) plus frameChunk, never what
// its length prefix merely claims; an accepted frame re-encodes to the
// bytes it was read from.
func checkFrame(t *testing.T, data []byte) (Message, bool) {
	var (
		m   Message
		err error
	)
	n := allocated(func() { m, err = readFrame(bytes.NewReader(data)) })
	if limit := uint64(2*len(data) + frameChunk + allocSlack); n > limit {
		t.Fatalf("readFrame allocated %d bytes for a %d-byte input (limit %d)", n, len(data), limit)
	}
	if err != nil {
		return Message{}, false
	}
	if m.Type == 0 || m.Type > MsgStateAck {
		t.Fatalf("readFrame accepted message type %d", m.Type)
	}
	again, err := encodeFrame(m)
	if err != nil {
		t.Fatalf("accepted frame does not re-encode: %v", err)
	}
	if !bytes.Equal(again, data[:len(again)]) {
		t.Fatalf("frame re-encodes to different bytes:\n got %x\nwant %x", again, data[:len(again)])
	}
	return m, true
}

// checkPayload decodes data as each body kind. A decode into fresh values
// allocates the declared dense block (row headers included, capped by
// checkShape at maxFrameSize) plus a cache no longer than the input's
// bitmap; a second decode into the rows just returned reuses them. An
// accepted body re-encodes to the identical bytes. (TestPhaseCodecAllocs
// gates the in-place decode at zero allocations; a fuzz worker's own
// goroutines allocate too often for an exact count here.)
func checkPayload(t *testing.T, data []byte) {
	var ann AggregateAnnounce
	var annErr error
	n := allocated(func() { annErr = DecodePayload(data, &ann) })
	if annErr == nil {
		u, f := rowShape(ann.YMinus)
		if limit := uint64(u*(24+8*f)) + allocSlack; n > limit {
			t.Fatalf("announce decode of %dx%d allocated %d bytes (limit %d)", u, f, n, limit)
		}
		if again := mustEncode(t, ann); !bytes.Equal(again, data) {
			t.Fatalf("announce re-encodes to different bytes:\n got %x\nwant %x", again, data)
		}
		rows := ann.YMinus
		if err := DecodePayload(data, &ann); err != nil || !sameRows(ann.YMinus, rows) {
			t.Fatalf("in-place announce decode: err %v, rows reused %v", err, sameRows(ann.YMinus, rows))
		}
	} else if n > allocSlack {
		t.Fatalf("rejected announce allocated %d bytes", n)
	}

	var up PolicyUpload
	var upErr error
	n = allocated(func() { upErr = DecodePayload(data, &up) })
	if upErr == nil {
		u, f := rowShape(up.Routing)
		if limit := uint64(u*(24+8*f)+len(data)*8) + allocSlack; n > limit {
			t.Fatalf("upload decode of %dx%d allocated %d bytes (limit %d)", u, f, n, limit)
		}
		if again := mustEncode(t, up); !bytes.Equal(again, data) {
			t.Fatalf("upload re-encodes to different bytes:\n got %x\nwant %x", again, data)
		}
		rows, cache := up.Routing, up.Cache
		if err := DecodePayload(data, &up); err != nil || !sameRows(up.Routing, rows) ||
			(len(cache) > 0 && &up.Cache[0] != &cache[0]) {
			t.Fatalf("in-place upload decode: err %v, buffers not reused", err)
		}
	} else if n > allocSlack {
		t.Fatalf("rejected upload allocated %d bytes", n)
	}
}

// sameRows reports whether a and b are the same rows, element for element.
func sameRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) || (len(a[i]) > 0 && &a[i][0] != &b[i][0]) {
			return false
		}
	}
	return true
}

func rowShape(rows [][]float64) (u, f int) {
	if len(rows) > 0 {
		f = len(rows[0])
	}
	return len(rows), f
}
