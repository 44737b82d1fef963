package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"edgecache/internal/leak"
	"edgecache/internal/model"
)

// pair is one raw (index, bits) body entry.
type pair struct {
	idx  uint32
	bits uint64
}

// rawBody assembles a body byte by byte, bypassing the encoder, so tests
// can build the malformed shapes the encoder never produces.
func rawBody(kind byte, u, f uint32, bitmap []byte, pairs ...pair) []byte {
	b := []byte{kind}
	b = binary.BigEndian.AppendUint32(b, u)
	b = binary.BigEndian.AppendUint32(b, f)
	b = append(b, bitmap...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(pairs)))
	for _, p := range pairs {
		b = binary.BigEndian.AppendUint32(b, p.idx)
		b = binary.BigEndian.AppendUint64(b, p.bits)
	}
	return b
}

// denseRows returns a u×f block with the given flat entries set.
func denseRows(u, f int, entries map[int]float64) [][]float64 {
	rows := make([][]float64, u)
	for i := range rows {
		rows[i] = make([]float64, f)
	}
	for idx, v := range entries {
		rows[idx/f][idx%f] = v
	}
	return rows
}

func mustEncode(t testing.TB, v any) []byte {
	t.Helper()
	b, err := EncodePayload(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPayloadBitsSurvive: every entry whose bits are nonzero travels bit
// for bit (−0, NaN with a payload, ±Inf, the smallest subnormal); +0 is
// the only value skipped, and the body costs its header plus 12 bytes per
// entry sent.
func TestPayloadBitsSurvive(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	vals := []float64{math.Copysign(0, -1), nan, math.Inf(1), math.Inf(-1), 5e-324, 0.25, 0}
	rows := [][]float64{vals[:4], vals[3:]}
	data := mustEncode(t, AggregateAnnounce{YMinus: rows})
	if want := bodyFixed + 7*model.PairSize; len(data) != want {
		t.Errorf("announce with 7 nonzero entries is %d bytes, want %d", len(data), want)
	}
	var out AggregateAnnounce
	if err := DecodePayload(data, &out); err != nil {
		t.Fatal(err)
	}
	for u, row := range rows {
		for f, v := range row {
			if got := out.YMinus[u][f]; math.Float64bits(got) != math.Float64bits(v) {
				t.Errorf("entry (%d,%d) = %x, want %x", u, f, math.Float64bits(got), math.Float64bits(v))
			}
		}
	}

	up := PolicyUpload{Cache: []bool{true, false, false, true, false, false, false, false, true},
		Routing: denseRows(2, 9, map[int]float64{3: 0.5, 17: math.Copysign(0, -1)})}
	data = mustEncode(t, up)
	if want := bodyFixed + 2 + 2*model.PairSize; len(data) != want {
		t.Errorf("upload is %d bytes, want %d", len(data), want)
	}
	var upOut PolicyUpload
	if err := DecodePayload(data, &upOut); err != nil {
		t.Fatal(err)
	}
	for f, c := range up.Cache {
		if upOut.Cache[f] != c {
			t.Errorf("cache[%d] = %v, want %v", f, upOut.Cache[f], c)
		}
	}
	if !math.Signbit(upOut.Routing[1][8]) || upOut.Routing[0][3] != 0.5 {
		t.Errorf("routing = %v", upOut.Routing)
	}
	if again := mustEncode(t, upOut); !bytes.Equal(again, data) {
		t.Error("decode followed by encode changed the bytes")
	}
}

// TestDecodePayloadStrict: the decoder accepts only what the encoder
// produces, and a rejected body leaves out untouched.
func TestDecodePayloadStrict(t *testing.T) {
	one := math.Float64bits(1)
	valid := rawBody(payloadAnnounce, 2, 3, nil, pair{1, one}, pair{4, one})
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", valid[:bodyFixed-1]},
		{"upload kind", rawBody(payloadUpload, 2, 3, []byte{0}, pair{1, one})},
		{"unknown kind", append([]byte{9}, valid[1:]...)},
		{"unsorted", rawBody(payloadAnnounce, 2, 3, nil, pair{4, one}, pair{1, one})},
		{"duplicate index", rawBody(payloadAnnounce, 2, 3, nil, pair{1, one}, pair{1, one})},
		{"index equal to U*F", rawBody(payloadAnnounce, 2, 3, nil, pair{6, one})},
		{"explicit +0", rawBody(payloadAnnounce, 2, 3, nil, pair{1, 0})},
		{"trailing byte", append(append([]byte(nil), valid...), 0)},
		{"missing byte", valid[:len(valid)-1]},
		{"nnz beyond data", valid[:len(valid)-model.PairSize]},
		{"rows without columns", rawBody(payloadAnnounce, 2, 0, nil)},
		{"columns without rows", rawBody(payloadAnnounce, 0, 3, nil)},
		{"block over limit", rawBody(payloadAnnounce, 1<<12, 1<<10, nil)},
		{"huge column count", rawBody(payloadAnnounce, 1, math.MaxUint32, nil)},
		{"over frame limit", make([]byte, maxFrameSize+1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := AggregateAnnounce{YMinus: denseRows(2, 3, map[int]float64{0: 7})}
			if err := DecodePayload(tc.data, &out); err == nil {
				t.Fatal("accepted")
			}
			if out.YMinus[0][0] != 7 || out.YMinus[0][1] != 0 {
				t.Errorf("rejected body changed out: %v", out.YMinus)
			}
		})
	}

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"bitmap padding set", rawBody(payloadUpload, 1, 3, []byte{0x08})},
		{"bitmap missing", rawBody(payloadUpload, 1, 9, []byte{0x01})},
		{"announce kind", rawBody(payloadAnnounce, 1, 3, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out PolicyUpload
			if err := DecodePayload(tc.data, &out); err == nil {
				t.Fatal("accepted")
			}
		})
	}
	if err := DecodePayload(valid, AggregateAnnounce{}); err == nil {
		t.Error("decode into a non-pointer: want error")
	}
	var ok AggregateAnnounce
	if err := DecodePayload(valid, &ok); err != nil {
		t.Errorf("valid body rejected: %v", err)
	}
	// Full bitmap byte (F a multiple of 8) and a cache-only upload.
	var up PolicyUpload
	if err := DecodePayload(rawBody(payloadUpload, 0, 8, []byte{0xff}), &up); err != nil || len(up.Cache) != 8 || !up.Cache[7] {
		t.Errorf("cache-only upload: %v, %+v", err, up)
	}
}

// TestEncodePayloadRejects: shapes the layout cannot carry are errors, not
// silently truncated bodies.
func TestEncodePayloadRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    any
	}{
		{"ragged announce", AggregateAnnounce{YMinus: [][]float64{{1, 2}, {3}}}},
		{"rows without columns", AggregateAnnounce{YMinus: [][]float64{{}}}},
		{"routing wider than cache", PolicyUpload{Cache: []bool{true}, Routing: [][]float64{{1, 0}}}},
		{"pointer", &AggregateAnnounce{}},
		{"slice", []float64{1}},
	} {
		if _, err := EncodePayload(tc.v); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

// TestDecodePayloadInPlace: rows (and a cache) of the body's shape are
// filled in place with the rest zeroed; any other shape gets fresh rows
// and the caller's are left alone.
func TestDecodePayloadInPlace(t *testing.T) {
	data := mustEncode(t, AggregateAnnounce{YMinus: denseRows(2, 3, map[int]float64{4: 0.5})})
	mine := denseRows(2, 3, map[int]float64{0: 9, 5: 9})
	out := AggregateAnnounce{YMinus: mine}
	if err := DecodePayload(data, &out); err != nil {
		t.Fatal(err)
	}
	if &out.YMinus[0][0] != &mine[0][0] || &out.YMinus[1][0] != &mine[1][0] {
		t.Error("matching rows were not reused")
	}
	if mine[0][0] != 0 || mine[1][1] != 0.5 || mine[1][2] != 0 {
		t.Errorf("in-place rows = %v", mine)
	}

	other := denseRows(3, 3, map[int]float64{0: 9})
	out = AggregateAnnounce{YMinus: other}
	if err := DecodePayload(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.YMinus) != 2 || len(out.YMinus[0]) != 3 || out.YMinus[1][1] != 0.5 {
		t.Errorf("fresh rows = %v", out.YMinus)
	}
	if other[0][0] != 9 {
		t.Error("mismatched rows were written")
	}

	upData := mustEncode(t, PolicyUpload{Cache: []bool{false, true, false}, Routing: denseRows(2, 3, map[int]float64{1: 1})})
	cache := []bool{true, true, true}
	routing := denseRows(2, 3, nil)
	up := PolicyUpload{Cache: cache, Routing: routing}
	if err := DecodePayload(upData, &up); err != nil {
		t.Fatal(err)
	}
	if &up.Cache[0] != &cache[0] || &up.Routing[0][0] != &routing[0][0] {
		t.Error("matching upload buffers were not reused")
	}
	if cache[0] || !cache[1] || cache[2] || routing[0][1] != 1 {
		t.Errorf("in-place upload = %v %v", cache, routing)
	}
}

// phaseBodies returns an announce and an upload of the tcp benchmark's
// shape (60×60) with the sparsity a converged run has: 17 nonzero
// aggregate entries and a 3-entry routing over 3 cached contents.
func phaseBodies() (AggregateAnnounce, PolicyUpload) {
	const u, f = 60, 60
	ann := make(map[int]float64)
	for k := 0; k < 17; k++ {
		ann[(k*211)%(u*f)] = 0.05 * float64(k+1)
	}
	up := PolicyUpload{Cache: make([]bool, f), Routing: denseRows(u, f, map[int]float64{7: 0.3, 1207: 0.9, 3007: 1})}
	up.Cache[7] = true
	return AggregateAnnounce{YMinus: denseRows(u, f, ann)}, up
}

// TestPhaseCodecAllocs is the codec's allocation gate: decoding an
// announce or an upload into rows of its shape allocates nothing, and
// EncodePayload allocates only the buffer it returns.
func TestPhaseCodecAllocs(t *testing.T) {
	ann, up := phaseBodies()
	annData, upData := mustEncode(t, ann), mustEncode(t, up)
	annOut := AggregateAnnounce{YMinus: denseRows(60, 60, nil)}
	upOut := PolicyUpload{Cache: make([]bool, 60), Routing: denseRows(60, 60, nil)}
	for _, tc := range []struct {
		name string
		max  float64
		fn   func() error
	}{
		{"decode announce", 0, func() error { return DecodePayload(annData, &annOut) }},
		{"decode upload", 0, func() error { return DecodePayload(upData, &upOut) }},
		{"encode announce", 1, func() error { _, err := EncodePayload(ann); return err }},
		{"encode upload", 1, func() error { _, err := EncodePayload(up); return err }},
	} {
		var err error
		allocs := testing.AllocsPerRun(100, func() {
			if e := tc.fn(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if allocs > tc.max {
			t.Errorf("%s allocates %.1f times per call, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
}

// BenchmarkPhaseCodec times one phase's payloads through the codec, each
// direction separately, with allocations reported (CI gates on
// TestPhaseCodecAllocs, never on these timings).
func BenchmarkPhaseCodec(b *testing.B) {
	ann, up := phaseBodies()
	annData, upData := mustEncode(b, ann), mustEncode(b, up)
	annOut := AggregateAnnounce{YMinus: denseRows(60, 60, nil)}
	upOut := PolicyUpload{Cache: make([]bool, 60), Routing: denseRows(60, 60, nil)}
	for _, bc := range []struct {
		name string
		fn   func() error
	}{
		{"announce/encode", func() error { _, err := EncodePayload(ann); return err }},
		{"announce/decode", func() error { return DecodePayload(annData, &annOut) }},
		{"upload/encode", func() error { _, err := EncodePayload(up); return err }},
		{"upload/decode", func() error { return DecodePayload(upData, &upOut) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTCPRejectsBadFrames drives a real socket: a raw client writes a
// frame with a flipped payload byte, a truncated frame, an over-limit
// length and an unknown message type, each on its own connection; then a
// valid frame on a fresh one. Only the valid frame reaches Recv, and
// Close leaves no reader goroutine behind.
func TestTCPRejectsBadFrames(t *testing.T) {
	before := leak.Take()
	ctx := testCtx(t)
	ep, err := NewTCPEndpoint("bs", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ann, _ := phaseBodies()
	msg := Message{Type: MsgPhaseStart, From: "sbs-0", To: "bs", Sweep: 3, Phase: 1, Payload: mustEncode(t, ann)}
	valid, err := encodeFrame(msg)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x40
	overLimit := binary.BigEndian.AppendUint32(nil, maxFrameSize+1)
	overLimit = append(overLimit, valid[4:]...)
	unknown, err := encodeFrame(Message{Type: MsgStateAck + 1, From: "sbs-0", To: "bs"})
	if err != nil {
		t.Fatal(err)
	}

	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("tcp", ep.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	for _, bad := range []struct {
		name  string
		frame []byte
	}{
		{"crc mismatch", flipped},
		{"over-limit length", overLimit},
		{"unknown type", unknown},
	} {
		// The endpoint drops a connection that sent a bad frame: the
		// client's read sees it close, so the frame was read and refused.
		conn := dial()
		_, _ = conn.Write(bad.frame) // the peer may reset before every byte lands
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil || isTimeout(err) {
			t.Errorf("%s: connection not dropped (read err %v)", bad.name, err)
		}
		conn.Close()
	}
	truncated := dial()
	if _, err := truncated.Write(valid[:len(valid)-5]); err != nil {
		t.Fatal(err)
	}
	truncated.Close()

	good := dial()
	if _, err := good.Write(valid); err != nil {
		t.Fatal(err)
	}
	got, err := ep.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != msg.Type || got.Sweep != msg.Sweep || got.Phase != msg.Phase || got.From != msg.From ||
		!bytes.Equal(got.Payload, msg.Payload) {
		t.Errorf("received %+v", got)
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if m, err := ep.Recv(short); err == nil {
		t.Errorf("a bad frame reached Recv: %+v", m)
	}
	good.Close()
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := before.Diff(); err != nil {
		t.Error(err)
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
