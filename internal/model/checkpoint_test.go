package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// testCheckpoint builds a fully-populated snapshot over testInstance(),
// exercising every optional section (best, mu, noise, health).
func testCheckpoint() *Checkpoint {
	in := testInstance()
	x := NewCachingPolicy(in)
	x.Set(0, 0, true)
	x.Set(1, 3, true)
	y := NewRoutingPolicy(in)
	y.Set(0, 0, 0, 0.5)
	y.Set(1, 1, 3, 0.25)
	agg := in.NewUFMat()
	y.AggregateInto(in, agg)
	bx := x.Clone()
	by := y.Clone()
	return &Checkpoint{
		Sweep:      3,
		Order:      []int{1, 0},
		Caching:    x,
		Routing:    y,
		Aggregate:  agg,
		History:    []float64{250.5, 210.25, 198.125},
		PrevCost:   198.125,
		Best:       &Solution{Caching: bx, Routing: by, Cost: CostBreakdown{Edge: 10.5, Backhaul: 187.625, Total: 198.125}},
		Mu:         [][]float64{{0.25, 0.5, 0}, {1e-9}},
		Engine:     EngineJacobi,
		HasNoise:   true,
		NoiseSeed:  42,
		NoiseDraws: 1234,
		Health: []SBSHealthState{
			{ConsecMisses: 1, SBSFaultStats: SBSFaultStats{Misses: 3, Retries: 7}},
			{Quarantined: true, ProbeSweep: 5, HoldConv: true,
				SBSFaultStats: SBSFaultStats{QuarantineSpans: 2, SkippedPhases: 4, FailedProbes: 1}},
		},
		InstanceFP: in.Fingerprint(),
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := testCheckpoint()
	data, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Errorf("round trip changed the snapshot:\n got %+v\nwant %+v", got, ck)
	}
	// Re-encoding the decoded snapshot must be byte-identical (canonical
	// encoding), which is what lets the fuzz target assert round-trip
	// stability on arbitrary accepted inputs.
	again, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("re-encoding the decoded snapshot changed the bytes")
	}
}

func TestCheckpointRoundTripMinimal(t *testing.T) {
	// A snapshot captured before the first sweep boundary: +Inf prevCost,
	// no best, no mu, no health, no noise. The +Inf must survive exactly.
	in := testInstance()
	ck := &Checkpoint{
		Order:     []int{0, 1},
		Caching:   NewCachingPolicy(in),
		Routing:   NewRoutingPolicy(in),
		Aggregate: in.NewUFMat(),
		PrevCost:  math.Inf(1),
	}
	data, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got.PrevCost, 1) {
		t.Errorf("PrevCost = %v, want +Inf", got.PrevCost)
	}
	if got.Best != nil || got.Mu != nil || got.Health != nil || got.HasNoise {
		t.Errorf("optional sections materialized from nothing: %+v", got)
	}
}

func TestCheckpointTruncationNeverPanics(t *testing.T) {
	data, err := testCheckpoint().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := UnmarshalCheckpoint(data[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(data))
		}
	}
}

func TestCheckpointSingleByteCorruptionDetected(t *testing.T) {
	data, err := testCheckpoint().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// CRC32 detects every burst error up to 32 bits, so ANY single flipped
	// byte — including in the trailer itself — must be rejected.
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, err := UnmarshalCheckpoint(mut); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
}

// resealCRC recomputes the CRC trailer after a deliberate mutation, so the
// decoder's structural checks (not the checksum) are what must catch it.
func resealCRC(data []byte) {
	crc := crc32.ChecksumIEEE(data[:len(data)-4])
	data[len(data)-4] = byte(crc)
	data[len(data)-3] = byte(crc >> 8)
	data[len(data)-2] = byte(crc >> 16)
	data[len(data)-1] = byte(crc >> 24)
}

func TestCheckpointOversizedLengthRejectedBeforeAllocation(t *testing.T) {
	ck := testCheckpoint()
	data, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// The health length prefix sits at a fixed distance from the trailer:
	// CRC (4) + entries (N*healthEntrySize) + the u32 itself.
	off := len(data) - 4 - len(ck.Health)*healthEntrySize - 4
	mut := append([]byte(nil), data...)
	mut[off] = 0xff
	mut[off+1] = 0xff
	mut[off+2] = 0xff
	mut[off+3] = 0xff
	resealCRC(mut)
	_, err = UnmarshalCheckpoint(mut)
	if err == nil {
		t.Fatal("4 GiB health length accepted")
	}
	if !strings.Contains(err.Error(), "overruns") {
		t.Errorf("want pre-allocation overrun error, got: %v", err)
	}
}

func TestCheckpointHeaderErrors(t *testing.T) {
	valid, err := testCheckpoint().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := UnmarshalCheckpoint(nil); err == nil {
		t.Error("empty input accepted")
	}
	badMagic := append([]byte(nil), valid...)
	copy(badMagic, "NOTACKPT")
	resealCRC(badMagic)
	if _, err := UnmarshalCheckpoint(badMagic); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: got %v", err)
	}
	future := append([]byte(nil), valid...)
	future[len(checkpointMagic)] = 99 // version u16, little-endian low byte
	resealCRC(future)
	if _, err := UnmarshalCheckpoint(future); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version: got %v", err)
	}
	zeroDim := append([]byte(nil), valid...)
	for i := 0; i < 4; i++ { // N u32 directly after magic+version
		zeroDim[len(checkpointMagic)+2+i] = 0
	}
	resealCRC(zeroDim)
	if _, err := UnmarshalCheckpoint(zeroDim); err == nil || !strings.Contains(err.Error(), "dimensions") {
		t.Errorf("zero N: got %v", err)
	}
}

func TestCheckpointPreflightErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Checkpoint)
	}{
		{"nil caching", func(ck *Checkpoint) { ck.Caching = nil }},
		{"order not permutation", func(ck *Checkpoint) { ck.Order = []int{0, 0} }},
		{"order too short", func(ck *Checkpoint) { ck.Order = []int{0} }},
		{"negative sweep", func(ck *Checkpoint) { ck.Sweep = -1 }},
		{"mu length", func(ck *Checkpoint) { ck.Mu = ck.Mu[:1] }},
		{"health length", func(ck *Checkpoint) { ck.Health = ck.Health[:1] }},
		{"best nil policy", func(ck *Checkpoint) { ck.Best = &Solution{} }},
		{"aggregate shape", func(ck *Checkpoint) { ck.Aggregate = Mat{U: 1, F: 1, Data: []float64{0}} }},
	}
	for _, tt := range tests {
		ck := testCheckpoint()
		tt.mutate(ck)
		if _, err := ck.MarshalBinary(); err == nil {
			t.Errorf("%s: marshaled without error", tt.name)
		}
	}
}

func TestCheckpointValidateFingerprint(t *testing.T) {
	in := testInstance()
	ck := testCheckpoint()
	if err := ck.Validate(in); err != nil {
		t.Fatalf("matching instance rejected: %v", err)
	}
	other := testInstance()
	other.Demand[0][0] += 1
	if err := ck.Validate(other); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("mutated instance: got %v", err)
	}
	// FP zero (legacy/unknown) skips the fingerprint check but keeps the
	// shape check.
	ck.InstanceFP = 0
	if err := ck.Validate(other); err != nil {
		t.Errorf("FP 0 should skip fingerprint check: %v", err)
	}
}

func TestCheckpointStoreSaveLatestRetention(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for sweep := 1; sweep <= 5; sweep++ {
		ck := testCheckpoint()
		ck.Sweep = sweep
		if err := store.Save(ck); err != nil {
			t.Fatal(err)
		}
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("retention kept %d files, want 3: %v", len(names), names)
	}
	got, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Sweep != 5 {
		t.Errorf("Latest() sweep = %d, want 5", got.Sweep)
	}
}

func TestCheckpointStoreSkipsCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	ck := testCheckpoint()
	ck.Sweep = 1
	if err := store.Save(ck); err != nil {
		t.Fatal(err)
	}
	// A torn newer file (e.g. crash on a filesystem without atomic rename)
	// must not block recovery from the older good one.
	if err := os.WriteFile(filepath.Join(dir, fileName(2)), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Sweep != 1 {
		t.Errorf("Latest() sweep = %d, want the older intact snapshot", got.Sweep)
	}
	// All corrupt: the collected decode errors surface, not ErrNoCheckpoint.
	if err := os.Remove(filepath.Join(dir, fileName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Latest(); err == nil || errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("all-corrupt store: got %v, want decode errors", err)
	}
}

func TestCheckpointStoreEmptyAndTempCleanup(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Latest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Errorf("empty store: got %v, want ErrNoCheckpoint", err)
	}
	// A leftover .tmp from a crashed write is removed by the next prune and
	// never surfaces through List.
	tmp := filepath.Join(dir, fileName(9)+".tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	ck := testCheckpoint()
	if err := store.Save(ck); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("stale .tmp survived a save")
	}
	names, _ := store.List()
	if len(names) != 1 {
		t.Errorf("List() = %v, want exactly the saved snapshot", names)
	}
}

// TestCheckpointStoreTornTempPruneInterleave replays the messiest recovery
// directory a supervised restart can encounter: intact snapshots, a torn
// .tmp from a save the crash interrupted, and a torn final file (a rename
// that landed without its data on a filesystem with no rename atomicity) —
// then a post-restart save whose prune runs over all of it. Latest must
// return the newest intact snapshot at every step, the next save's prune
// must clear the .tmp without touching recoverable files, and retention
// must still bound the directory.
func TestCheckpointStoreTornTempPruneInterleave(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for sweep := 1; sweep <= 2; sweep++ {
		ck := testCheckpoint()
		ck.Sweep = sweep
		if err := store.Save(ck); err != nil {
			t.Fatal(err)
		}
	}
	// Crash mid-save of sweep 3: the temp file exists, torn, never renamed.
	torn3 := filepath.Join(dir, fileName(3)+".tmp")
	if err := os.WriteFile(torn3, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash around the rename of sweep 4: the final name exists but holds
	// garbage.
	torn4 := filepath.Join(dir, fileName(4))
	if err := os.WriteFile(torn4, []byte("torn rename"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Recovery before any new save: the .tmp is invisible to Latest, the
	// torn final file is skipped, the newest intact snapshot (sweep 2) wins.
	got, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Sweep != 2 {
		t.Errorf("Latest() over torn files = sweep %d, want 2", got.Sweep)
	}

	// The restarted run saves sweep 5; the piggy-backed prune must remove
	// the stale .tmp and enforce retention over the .ckpt files.
	ck := testCheckpoint()
	ck.Sweep = 5
	if err := store.Save(ck); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn3); !os.IsNotExist(err) {
		t.Error("stale .tmp survived the post-restart save's prune")
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Errorf("retention kept %d files, want 3: %v", len(names), names)
	}
	// The torn sweep-4 file counts against retention (prune cannot decode
	// every candidate on every save), but recovery still lands on the
	// newest intact snapshot.
	got, err = store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Sweep != 5 {
		t.Errorf("Latest() after post-restart save = sweep %d, want 5", got.Sweep)
	}
}

func TestMemCheckpointStore(t *testing.T) {
	store := NewMemCheckpointStore()
	for sweep := 1; sweep <= 3; sweep++ {
		ck := testCheckpoint()
		ck.Sweep = sweep
		if err := store.Save(ck); err != nil {
			t.Fatal(err)
		}
	}
	got, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if got.Sweep != 3 {
		t.Errorf("Latest() sweep = %d, want 3", got.Sweep)
	}
	// The stored snapshot went through the codec: mutating it must not
	// touch what a later Latest returns... and it must not alias the saved
	// original either.
	all := NewMemCheckpointStore()
	ck := testCheckpoint()
	if err := all.Save(ck); err != nil {
		t.Fatal(err)
	}
	ck.Caching.Set(0, 1, true)
	stored, _ := all.Latest()
	if stored.Caching.Get(0, 1) {
		t.Error("stored snapshot aliases the live policy")
	}
	unlimited := NewMemCheckpointStore()
	for i := 0; i < 10; i++ {
		if err := unlimited.Save(testCheckpoint()); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(unlimited.All()); got != 10 {
		t.Errorf("unlimited store kept %d, want 10", got)
	}
}

// FuzzSnapshot drives the checkpoint decoder with arbitrary bytes: it must
// never panic, its allocation stays within what the input or its declared
// dense block can account for, and any input it accepts must re-encode
// byte-identically (canonical encoding). Because the CRC gate rejects
// almost all random mutations, the target also retries each input with a
// resealed trailer so the fuzzer can reach the structural decoding paths.
// Run with `go test -run '^$' -fuzz '^FuzzSnapshot$' ./internal/model`.
func FuzzSnapshot(f *testing.F) {
	if valid, err := testCheckpoint().MarshalBinary(); err == nil {
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tryDecode(t, data)
		if len(data) >= len(checkpointMagic)+6 {
			fixed := append([]byte(nil), data...)
			resealCRC(fixed)
			tryDecode(t, fixed)
		}
	})
}

// allocated returns the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocSlack covers what a decode allocates beyond its data-proportional
// bytes: small fixed allocations (the snapshot, policies, error values)
// and the rounding of each large allocation up to whole 8 KiB pages.
const allocSlack = 24 << 10

// declaredDense is what a decode may allocate for the shape data's header
// declares: two N·U·F routing tensors, the U·F aggregate and two caching
// bitsets. It is 0 when the header is incomplete or the shape fails
// checkDims, since the decoder must then reject before allocating.
func declaredDense(data []byte) uint64 {
	const dimsOff = len(checkpointMagic) + 2
	if len(data) < dimsOff+12 {
		return 0
	}
	n := int(binary.LittleEndian.Uint32(data[dimsOff:]))
	u := int(binary.LittleEndian.Uint32(data[dimsOff+4:]))
	f := int(binary.LittleEndian.Uint32(data[dimsOff+8:]))
	if checkDims(n, u, f) != nil {
		return 0
	}
	return uint64(8 * (2*n*u*f + u*f + 2*n*((f+63)/64)))
}

func tryDecode(t *testing.T, data []byte) {
	t.Helper()
	var (
		ck  *Checkpoint
		err error
	)
	// Order, history, mu and health decode to at most 2.5 times their
	// encoded bytes; the tensors are bounded by the declared shape.
	n := allocated(func() { ck, err = UnmarshalCheckpoint(data) })
	if limit := 3*uint64(len(data)) + declaredDense(data) + allocSlack; n > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), n, limit)
	}
	if err != nil {
		return // rejected is fine; panicking is not
	}
	out, err := ck.MarshalBinary()
	if err != nil {
		t.Fatalf("accepted snapshot failed to re-encode: %v", err)
	}
	// Re-encoding always emits the current format version. Inputs already
	// at the current version must round-trip byte-identically (canonical
	// encoding); accepted legacy versions migrate forward instead, so for
	// them the re-encoding must decode back to the same snapshot, compared
	// through its canonical encoding (NaN entries defeat reflect.DeepEqual).
	version := uint16(data[len(checkpointMagic)]) | uint16(data[len(checkpointMagic)+1])<<8
	if version == checkpointVersion {
		if !bytes.Equal(out, data) {
			t.Fatalf("accepted snapshot re-encoded differently (%d vs %d bytes)", len(out), len(data))
		}
		return
	}
	again, err := UnmarshalCheckpoint(out)
	if err != nil {
		t.Fatalf("migrated v%d snapshot failed to decode: %v", version, err)
	}
	if again, err := again.MarshalBinary(); err != nil || !bytes.Equal(again, out) {
		t.Fatalf("migrating a v%d snapshot changed its contents (re-encode error %v)", version, err)
	}
}

// phaseWordOffset is where the u32 phase word sits: after magic, version,
// the three dims, the fingerprint and the sweep. The engine-kind byte of
// versions 2 and 3 follows it.
const (
	phaseWordOffset  = len(checkpointMagic) + 2 + 3*4 + 8 + 4
	engineByteOffset = phaseWordOffset + 4
)

// midSweepBytes is ck encoded as an earlier build wrote a snapshot taken
// mid-sweep: the version-2 layout with its phase word set to phase and the
// CRC resealed.
func midSweepBytes(t *testing.T, ck *Checkpoint, phase uint32) []byte {
	t.Helper()
	return withPhase(t, writeLayout(ck, 2, denseBlock), phase)
}

// withPhase sets the phase word of an encoded boundary snapshot and
// reseals the CRC.
func withPhase(t *testing.T, data []byte, phase uint32) []byte {
	t.Helper()
	if got := data[phaseWordOffset : phaseWordOffset+4]; !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Fatalf("boundary snapshot encodes phase word %v, want 0", got)
	}
	binary.LittleEndian.PutUint32(data[phaseWordOffset:], phase)
	resealCRC(data)
	return data
}

// TestCheckpointRejectsMidSweepSnapshot: a run resumes at sweep boundaries
// only, and the codec is the one place that says so. A snapshot an earlier
// build took mid-sweep is rejected with an error naming its phase.
func TestCheckpointRejectsMidSweepSnapshot(t *testing.T) {
	_, err := UnmarshalCheckpoint(midSweepBytes(t, testCheckpoint(), 1))
	if err == nil || !strings.Contains(err.Error(), "phase 1") || !strings.Contains(err.Error(), "mid-sweep") {
		t.Fatalf("mid-sweep snapshot: got %v, want an error naming phase 1", err)
	}
	// The current layout keeps the phase word, and the same rule.
	current, err := testCheckpoint().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalCheckpoint(withPhase(t, current, 3)); err == nil || !strings.Contains(err.Error(), "phase 3") {
		t.Fatalf("mid-sweep version-%d snapshot: got %v, want an error naming phase 3", checkpointVersion, err)
	}
	// The legacy layout carries the same phase word.
	legacy := testCheckpoint()
	legacy.Engine = EngineGaussSeidel
	v1 := legacyV1Encode(t, legacy)
	v1[phaseWordOffset] = 2
	resealCRC(v1)
	if _, err := UnmarshalCheckpoint(v1); err == nil || !strings.Contains(err.Error(), "phase 2") {
		t.Fatalf("mid-sweep version-1 snapshot: got %v, want an error naming phase 2", err)
	}
}

// TestCheckpointStoreFallsBackPastMidSweepSnapshot: a mid-sweep file an
// earlier build left as the newest in a store sorts after its sweep's
// boundary snapshot. Latest skips it and DeepLatest quarantines it; both
// return the newest boundary snapshot.
func TestCheckpointStoreFallsBackPastMidSweepSnapshot(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	for sweep := 1; sweep <= 2; sweep++ {
		ck := testCheckpoint()
		ck.Sweep = sweep
		if err := store.Save(ck); err != nil {
			t.Fatal(err)
		}
	}
	mid := testCheckpoint()
	mid.Sweep = 2
	oldName := fmt.Sprintf("ckpt-%08d-%04d%s", 2, 1, checkpointExt) // an earlier build's (sweep, phase) name
	if err := os.WriteFile(filepath.Join(dir, oldName), midSweepBytes(t, mid, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if names[len(names)-1] != oldName || names[len(names)-2] != fileName(2) {
		t.Fatalf("store order %v: want %s newest, after %s", names, oldName, fileName(2))
	}

	got, err := store.Latest()
	if err != nil || got.Sweep != 2 {
		t.Fatalf("Latest() = %v, %v; want the sweep-2 boundary snapshot", got, err)
	}
	got, err = store.DeepLatest()
	if err != nil || got.Sweep != 2 {
		t.Fatalf("DeepLatest() = %v, %v; want the sweep-2 boundary snapshot", got, err)
	}
	if _, err := os.Stat(filepath.Join(dir, oldName)); !os.IsNotExist(err) {
		t.Errorf("DeepLatest left the mid-sweep file in place: %v", err)
	}
	if _, err := os.Stat(quarantineName(filepath.Join(dir, oldName))); err != nil {
		t.Errorf("mid-sweep file not quarantined: %v", err)
	}
}

// TestCheckpointStoreRejectsRetainBelowOne: retention has no hidden
// default; a store keeps at least one snapshot.
func TestCheckpointStoreRejectsRetainBelowOne(t *testing.T) {
	for _, retain := range []int{0, -1} {
		if _, err := NewCheckpointStore(t.TempDir(), retain); err == nil {
			t.Errorf("retain %d: want error", retain)
		}
		if _, err := NewCheckpointStoreFS(t.TempDir(), retain, OSCheckpointFS{}); err == nil {
			t.Errorf("retain %d over an explicit filesystem: want error", retain)
		}
	}
	if _, err := NewCheckpointStore(t.TempDir(), 1); err != nil {
		t.Errorf("retain 1: %v", err)
	}
}

// legacyV1Encode encodes ck in the version-1 layout (dense tensors, no
// engine byte). The snapshot must be a Gauss-Seidel one — version 1 could
// express nothing else.
func legacyV1Encode(t *testing.T, ck *Checkpoint) []byte {
	t.Helper()
	if ck.Engine != EngineGaussSeidel {
		t.Fatalf("version 1 cannot encode engine %v", ck.Engine)
	}
	return writeLayout(ck, 1, denseBlock)
}

// writeLayout encodes ck field by field in format version 1, 2 or 3,
// without preflight and into a growing buffer, so tests can build what the
// encoder no longer writes: legacy snapshots, and version-3 snapshots with
// malformed pair bodies. Version 1 has no engine byte. block writes each
// tensor — the routing tensor, the aggregate, the best routing tensor, in
// that order: denseBlock for versions 1 and 2, sparseBlock for version 3.
func writeLayout(ck *Checkpoint, version uint16, block func(w *ckptWriter, data []float64)) []byte {
	w := &ckptWriter{}
	w.buf = append(w.buf, checkpointMagic...)
	w.u16(version)
	w.u32(uint32(ck.Caching.N))
	w.u32(uint32(ck.Routing.T.U))
	w.u32(uint32(ck.Caching.F))
	w.u64(ck.InstanceFP)
	w.u32(uint32(ck.Sweep))
	w.u32(0)
	if version >= 2 {
		w.u8(uint8(ck.Engine))
	}
	w.f64(ck.PrevCost)
	w.bool8(ck.HasNoise)
	w.i64(ck.NoiseSeed)
	w.u64(ck.NoiseDraws)
	for _, v := range ck.Order {
		w.u32(uint32(v))
	}
	w.words(ck.Caching.bits)
	block(w, ck.Routing.T.Data)
	block(w, ck.Aggregate.Data)
	w.u32(uint32(len(ck.History)))
	w.f64s(ck.History)
	w.bool8(ck.Best != nil)
	if ck.Best != nil {
		w.words(ck.Best.Caching.bits)
		block(w, ck.Best.Routing.T.Data)
		w.f64(ck.Best.Cost.Edge)
		w.f64(ck.Best.Cost.Backhaul)
		w.f64(ck.Best.Cost.Total)
	}
	w.bool8(len(ck.Mu) != 0)
	for _, mu := range ck.Mu {
		w.u32(uint32(len(mu)))
		w.f64s(mu)
	}
	w.u32(uint32(len(ck.Health)))
	for _, h := range ck.Health {
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
	return w.buf
}

// denseBlock writes a tensor as versions 1 and 2 do: every entry's bits.
func denseBlock(w *ckptWriter, data []float64) { w.f64s(data) }

// sparseBlock writes a tensor as version 3 does: its pair body.
func sparseBlock(w *ckptWriter, data []float64) {
	w.buf = AppendPairBody(w.buf, CountPairs(data), data)
}

// pair is one raw (index, bits) entry of a pair body.
type pair struct {
	idx  uint32
	bits uint64
}

// rawRouting writes the given pairs, unchecked, as the routing tensor's
// body and every other tensor as sparseBlock does.
func rawRouting(pairs ...pair) func(w *ckptWriter, data []float64) {
	first := true
	return func(w *ckptWriter, data []float64) {
		if !first {
			sparseBlock(w, data)
			return
		}
		first = false
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(len(pairs)))
		for _, p := range pairs {
			w.buf = binary.BigEndian.AppendUint32(w.buf, p.idx)
			w.buf = binary.BigEndian.AppendUint64(w.buf, p.bits)
		}
	}
}

func TestCheckpointDecodeV1Legacy(t *testing.T) {
	ck := testCheckpoint()
	ck.Engine = EngineGaussSeidel
	v1 := legacyV1Encode(t, ck)
	got, err := UnmarshalCheckpoint(v1)
	if err != nil {
		t.Fatalf("version-1 snapshot rejected: %v", err)
	}
	if got.Engine != EngineGaussSeidel {
		t.Errorf("version-1 snapshot decoded engine %v, want gauss-seidel", got.Engine)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Errorf("version-1 decode changed the snapshot:\n got %+v\nwant %+v", got, ck)
	}
	// Migration path: re-encoding emits the current version, which must
	// round-trip.
	migrated, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	again, err := UnmarshalCheckpoint(migrated)
	if err != nil {
		t.Fatalf("migrated snapshot rejected: %v", err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Errorf("migrating the v1 snapshot to v%d changed its contents", checkpointVersion)
	}
}

func TestCheckpointRejectsUnknownEngine(t *testing.T) {
	data, err := testCheckpoint().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	mut[engineByteOffset] = 0x7f
	resealCRC(mut)
	if _, err := UnmarshalCheckpoint(mut); err == nil || !strings.Contains(err.Error(), "engine") {
		t.Errorf("unknown engine kind: got %v", err)
	}
}

// The snapshot fuzz target keeps a committed seed corpus under
// testdata/fuzz/FuzzSnapshot so plain `go test` replays it. The encoding is
// produced by the codec itself (and, for the legacy seeds, by writeLayout's
// dense versions 1 and 2), so the files are regenerated, not hand-edited:
//
//	EDGECACHE_REGEN_CORPUS=1 go test -run TestRegenCorpus ./internal/model
func TestRegenCorpus(t *testing.T) {
	if os.Getenv("EDGECACHE_REGEN_CORPUS") == "" {
		t.Skip("set EDGECACHE_REGEN_CORPUS=1 to rewrite testdata/fuzz seed files")
	}
	for _, s := range snapshotSeeds(t) {
		writeCorpusEntry(t, "FuzzSnapshot", s.name, s.data)
	}
}

// snapshotSeed is one named input of the FuzzSnapshot corpus.
type snapshotSeed struct {
	name string
	data []byte
}

// snapshotSeeds returns the committed FuzzSnapshot corpus. The unprefixed
// seeds are version 2, the format before pair bodies; seed-v1-legacy is
// version 1; the seed-v3 ones exercise the pair bodies.
func snapshotSeeds(t *testing.T) []snapshotSeed {
	valid := writeLayout(testCheckpoint(), 2, denseBlock)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	oversized := append([]byte(nil), valid...)
	off := len(oversized) - 4 - 2*healthEntrySize - 4
	oversized[off], oversized[off+1], oversized[off+2], oversized[off+3] = 0xff, 0xff, 0xff, 0xff
	resealCRC(oversized)
	legacy := testCheckpoint()
	legacy.Engine = EngineGaussSeidel

	v3 := func(mutate func(*Checkpoint)) []byte {
		ck := testCheckpoint()
		mutate(ck)
		data, err := ck.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	one := math.Float64bits(0.5)
	cells := uint32(len(testCheckpoint().Routing.T.Data))
	return []snapshotSeed{
		{"seed-valid", valid},
		{"seed-truncated", valid[:len(valid)-9]},
		{"seed-bad-magic", append([]byte("NOTACKPT"), valid[8:]...)},
		{"seed-flipped-byte", flipped},
		{"seed-oversized-health-len", oversized},
		{"seed-v1-legacy", legacyV1Encode(t, legacy)},
		{"seed-v2-mid-sweep", midSweepBytes(t, testCheckpoint(), 1)},
		{"seed-v3-valid", v3(func(*Checkpoint) {})},
		{"seed-v3-negative-zero", v3(func(ck *Checkpoint) { ck.Routing.T.Data[1] = math.Copysign(0, -1) })},
		{"seed-v3-nan", v3(func(ck *Checkpoint) { ck.Aggregate.Data[2] = math.Float64frombits(0x7ff8_0000_0000_0001) })},
		{"seed-v3-unsorted-pair", writeLayout(testCheckpoint(), 3, rawRouting(pair{3, one}, pair{1, one}))},
		{"seed-v3-duplicate-index", writeLayout(testCheckpoint(), 3, rawRouting(pair{1, one}, pair{1, one}))},
		{"seed-v3-explicit-zero", writeLayout(testCheckpoint(), 3, rawRouting(pair{2, 0}))},
		{"seed-v3-index-equal-cells", writeLayout(testCheckpoint(), 3, rawRouting(pair{cells, one}))},
		{"seed-v3-huge-shape", writeLayout(hugeShapeCheckpoint(), 3, sparseBlock)},
		{"seed-v3-flag-byte", withByte(v3(func(*Checkpoint) {}), noiseFlagOffset, '0')},
	}
}

// noiseFlagOffset is where the HasNoise byte sits in versions 2 and 3:
// after the engine byte and the f64 prevCost.
const noiseFlagOffset = engineByteOffset + 1 + 8

// withByte sets data[off] to b and reseals the CRC.
func withByte(data []byte, off int, b byte) []byte {
	data[off] = b
	resealCRC(data)
	return data
}

// TestCheckpointRejectsNonBoolFlag: a flag byte other than 0 or 1 would
// decode as true and re-encode as 1, so the decoder rejects it.
func TestCheckpointRejectsNonBoolFlag(t *testing.T) {
	ck := testCheckpoint()
	data, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if data[noiseFlagOffset] != 1 {
		t.Fatalf("HasNoise byte at %d is %d, want 1", noiseFlagOffset, data[noiseFlagOffset])
	}
	// The last health entry's Quarantined byte follows its ConsecMisses.
	quarantined := len(data) - 4 - healthEntrySize + 4
	if data[quarantined] != 1 {
		t.Fatalf("Quarantined byte at %d is %d, want 1", quarantined, data[quarantined])
	}
	for _, off := range []int{noiseFlagOffset, quarantined} {
		mut := withByte(append([]byte(nil), data...), off, '0')
		if _, err := UnmarshalCheckpoint(mut); err == nil || !strings.Contains(err.Error(), "want 0 or 1") {
			t.Errorf("flag byte 0x30 at %d: got %v", off, err)
		}
	}
}

// hugeShapeCheckpoint declares a 1×2^20×2^10 routing tensor — 8 GiB as
// dense float64s — with every tensor empty: its version-3 encoding is a
// few hundred bytes, and the decoder must reject it before allocating.
func hugeShapeCheckpoint() *Checkpoint {
	const u, f = 1 << 20, 1 << 10
	return &Checkpoint{
		Order:     []int{0},
		Caching:   NewCachingPolicyDims(1, f),
		Routing:   &RoutingPolicy{T: Tensor3{N: 1, U: u, F: f}},
		Aggregate: Mat{U: u, F: f},
		PrevCost:  math.Inf(1),
	}
}

// writeCorpusEntry writes one []byte seed in the `go test fuzz v1` format
// (same convention as internal/transport).
func writeCorpusEntry(t *testing.T, fuzzName, seedName string, data []byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", fuzzName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	content := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
	if err := os.WriteFile(filepath.Join(dir, seedName), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// readCorpusEntry reads one []byte seed written by writeCorpusEntry.
func readCorpusEntry(t *testing.T, fuzzName, seedName string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", fuzzName, seedName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s/%s is not a one-value []byte corpus entry", fuzzName, seedName)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s/%s: %v", fuzzName, seedName, err)
	}
	return []byte(data)
}

// TestCheckpointLegacySeedsDecode: the committed version-1 and version-2
// seeds, written densely before pair bodies existed, still decode to the
// snapshot they were written from, and writing that snapshot in their own
// layout gives back their bytes.
func TestCheckpointLegacySeedsDecode(t *testing.T) {
	gs := testCheckpoint()
	gs.Engine = EngineGaussSeidel
	for _, tc := range []struct {
		seed    string
		version uint16
		want    *Checkpoint
	}{
		{"seed-valid", 2, testCheckpoint()},
		{"seed-v1-legacy", 1, gs},
	} {
		data := readCorpusEntry(t, "FuzzSnapshot", tc.seed)
		got, err := UnmarshalCheckpoint(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.seed, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s decodes to\n%+v\nwant\n%+v", tc.seed, got, tc.want)
		}
		if again := writeLayout(got, tc.version, denseBlock); !bytes.Equal(again, data) {
			t.Errorf("%s: version-%d layout of the decoded snapshot differs from the seed", tc.seed, tc.version)
		}
	}
}

// TestCheckpointLayoutMatchesEncoder: the tests' field-by-field writer and
// MarshalBinary's exact-size encoder agree on the version-3 bytes, so the
// legacy and malformed layouts built from it differ from real snapshots
// only where they mean to.
func TestCheckpointLayoutMatchesEncoder(t *testing.T) {
	for _, ck := range []*Checkpoint{testCheckpoint(), ckptShapeCheckpoint()} {
		data, err := ck.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if want := writeLayout(ck, checkpointVersion, sparseBlock); !bytes.Equal(data, want) {
			t.Errorf("MarshalBinary and writeLayout disagree (%d vs %d bytes)", len(data), len(want))
		}
	}
}

// TestCheckpointPairBodyStrict: a version-3 decoder accepts only the pair
// bodies the encoder writes — sorted unique in-range indexes, no explicit
// +0, every promised pair present — and takes −0 and NaN as explicit pairs.
func TestCheckpointPairBodyStrict(t *testing.T) {
	one := math.Float64bits(0.5)
	cells := uint32(len(testCheckpoint().Routing.T.Data))
	for _, tc := range []struct {
		name   string
		pairs  []pair
		accept bool
	}{
		{"sorted", []pair{{1, one}, {3, one}}, true},
		{"negative zero", []pair{{1, math.Float64bits(math.Copysign(0, -1))}}, true},
		{"nan", []pair{{cells - 1, 0x7ff8_0000_0000_0001}}, true},
		{"unsorted", []pair{{3, one}, {1, one}}, false},
		{"duplicate index", []pair{{1, one}, {1, one}}, false},
		{"explicit +0", []pair{{2, 0}}, false},
		{"index equal to the cell count", []pair{{cells, one}}, false},
	} {
		data := writeLayout(testCheckpoint(), checkpointVersion, rawRouting(tc.pairs...))
		ck, err := UnmarshalCheckpoint(data)
		if (err == nil) != tc.accept {
			t.Errorf("%s: accept %v, got error %v", tc.name, tc.accept, err)
			continue
		}
		if err != nil {
			if !strings.Contains(err.Error(), "routing tensor: pair body") {
				t.Errorf("%s: error %q does not name the routing tensor's pair body", tc.name, err)
			}
			continue
		}
		if again, err := ck.MarshalBinary(); err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s: decode then encode changed the bytes (err %v)", tc.name, err)
		}
	}
	// A pair count past the end of the input is rejected before any pair is
	// read.
	data := writeLayout(testCheckpoint(), checkpointVersion, rawRouting(pair{1, one}))
	off := bytes.Index(data, binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, 1), 1))
	binary.BigEndian.PutUint32(data[off:], math.MaxUint32)
	resealCRC(data)
	if _, err := UnmarshalCheckpoint(data); err == nil || !strings.Contains(err.Error(), "pairs need") {
		t.Errorf("pair count past the input: got %v", err)
	}
}

// TestCheckpointRejectsHugeDeclaredShape: a pair body does not tie the
// file size to the dense size, so the decoder bounds the declared N·U·F
// before allocating. A few hundred bytes declaring an 8 GiB tensor are
// rejected, allocating next to nothing.
func TestCheckpointRejectsHugeDeclaredShape(t *testing.T) {
	data := writeLayout(hugeShapeCheckpoint(), checkpointVersion, sparseBlock)
	var err error
	n := allocated(func() { _, err = UnmarshalCheckpoint(data) })
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("%d-byte snapshot declaring a 2^30-cell tensor: got %v", len(data), err)
	}
	if n > allocSlack {
		t.Errorf("rejecting it allocated %d bytes", n)
	}
	if _, err := hugeShapeCheckpoint().MarshalBinary(); err == nil {
		t.Error("the encoder writes a shape the decoder rejects")
	}
}

// ckptShapeCheckpoint is a snapshot at the benchmark's checkpoint shape
// (N=10, U=F=40) with the sparsity a DUA sweep leaves there: 30 routing
// entries out of 16,000, their aggregate, the same again as the best
// solution, a short history and a noise position.
func ckptShapeCheckpoint() *Checkpoint {
	const n, u, f = 10, 40, 40
	x := NewCachingPolicyDims(n, f)
	y := &RoutingPolicy{T: NewTensor3(n, u, f)}
	agg := NewMat(u, f)
	for k := 0; k < 30; k++ {
		sbs, user, content := k%n, (k*7)%u, (k*13)%f
		v := 0.1 + 0.03*float64(k)
		x.Set(sbs, content, true)
		y.Set(sbs, user, content, v)
		agg.Add(user, content, v)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return &Checkpoint{
		Sweep:      6,
		Order:      order,
		Caching:    x,
		Routing:    y,
		Aggregate:  agg,
		History:    []float64{912.5, 850.25, 841.125, 840.0625, 839.5, 839.25},
		PrevCost:   839.25,
		Best:       &Solution{Caching: x.Clone(), Routing: y.Clone(), Cost: CostBreakdown{Edge: 40.25, Backhaul: 799, Total: 839.25}},
		HasNoise:   true,
		NoiseSeed:  99,
		NoiseDraws: 4321,
		InstanceFP: 0x5eed_cafe_f00d_beef,
	}
}

// TestCheckpointEncodeAllocs is the encoder's allocation gate: at the
// checkpoint shape, MarshalBinary allocates its returned buffer, sized
// exactly, and nothing beyond what preflight needs.
func TestCheckpointEncodeAllocs(t *testing.T) {
	ck := ckptShapeCheckpoint()
	data, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if cap(data) != len(data) {
		t.Errorf("encoded %d bytes into a %d-byte buffer", len(data), cap(data))
	}
	pre := testing.AllocsPerRun(100, func() { _ = ck.preflight() })
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ck.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > pre+1 {
		t.Errorf("MarshalBinary allocates %.1f times per call, want %.0f (preflight) + 1 (the buffer)", allocs, pre)
	}
}

// TestCheckpointSparseSize: at the checkpoint shape a snapshot stays under
// 4 KB; version 2 wrote the same snapshot densely in about 269 KB.
func TestCheckpointSparseSize(t *testing.T) {
	ck := ckptShapeCheckpoint()
	data, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) >= 4000 {
		t.Errorf("snapshot is %d bytes, want under 4 KB (version 2 wrote it in %d)", len(data), len(writeLayout(ck, 2, denseBlock)))
	}
}

// TestCheckpointSparseBitsRoundTrip: −0, NaN payloads and denormals in all
// three sparse tensors come back with the same Float64bits.
func TestCheckpointSparseBitsRoundTrip(t *testing.T) {
	ck := ckptShapeCheckpoint()
	odd := []float64{
		math.Copysign(0, -1),
		math.Float64frombits(0x7ff8_0000_dead_beef),
		math.Float64frombits(0xfff0_0000_0000_0001),
		5e-324,
		-math.SmallestNonzeroFloat64 * 7,
		math.Float64frombits(0x000f_ffff_ffff_ffff),
	}
	tensors := []struct {
		name string
		data func(*Checkpoint) []float64
	}{
		{"routing", func(c *Checkpoint) []float64 { return c.Routing.T.Data }},
		{"aggregate", func(c *Checkpoint) []float64 { return c.Aggregate.Data }},
		{"best routing", func(c *Checkpoint) []float64 { return c.Best.Routing.T.Data }},
	}
	for i, tn := range tensors {
		d := tn.data(ck)
		for k, v := range odd {
			d[(i*97+k*131)%len(d)] = v
		}
	}
	data, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range tensors {
		want, have := tn.data(ck), tn.data(got)
		for k := range want {
			if math.Float64bits(have[k]) != math.Float64bits(want[k]) {
				t.Errorf("%s[%d] = %#x, want %#x", tn.name, k, math.Float64bits(have[k]), math.Float64bits(want[k]))
			}
		}
	}
	if again, err := got.MarshalBinary(); err != nil || !bytes.Equal(again, data) {
		t.Errorf("decode then encode changed the bytes (err %v)", err)
	}
}

// BenchmarkCheckpointCodec times one snapshot at the checkpoint shape
// through the codec in each direction, with allocations reported (CI gates
// on TestCheckpointEncodeAllocs, never on these timings).
func BenchmarkCheckpointCodec(b *testing.B) {
	ck := ckptShapeCheckpoint()
	data, err := ck.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := ck.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := UnmarshalCheckpoint(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
