package model

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
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
			{ConsecMisses: 1, Misses: 3, Retries: 7},
			{Quarantined: true, ProbeSweep: 5, HoldConv: true, QuarantineSpans: 2, SkippedPhases: 4, FailedProbes: 1},
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
// never panic, and any input it accepts must re-encode byte-identically
// (canonical encoding). Because the CRC gate rejects almost all random
// mutations, the target also retries each input with a resealed trailer so
// the fuzzer can reach the structural decoding paths.
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

func tryDecode(t *testing.T, data []byte) {
	t.Helper()
	ck, err := UnmarshalCheckpoint(data)
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
	// them the re-encoding must decode back to the same snapshot.
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
	if !reflect.DeepEqual(ck, again) {
		t.Fatalf("migrating a v%d snapshot changed its contents", version)
	}
}

// phaseWordOffset is where the u32 phase word sits: after magic, version,
// the three dims, the fingerprint and the sweep. The engine-kind byte of
// version 2 follows it.
const (
	phaseWordOffset  = len(checkpointMagic) + 2 + 3*4 + 8 + 4
	engineByteOffset = phaseWordOffset + 4
)

// midSweepBytes is ck encoded as an earlier build wrote a snapshot taken
// mid-sweep: the boundary encoding with its phase word set to phase and
// the CRC resealed.
func midSweepBytes(t *testing.T, ck *Checkpoint, phase uint32) []byte {
	t.Helper()
	data, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := data[phaseWordOffset : phaseWordOffset+4]; !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Fatalf("boundary snapshot encodes phase word %v, want 0", got)
	}
	data[phaseWordOffset] = byte(phase)
	data[phaseWordOffset+1] = byte(phase >> 8)
	data[phaseWordOffset+2] = byte(phase >> 16)
	data[phaseWordOffset+3] = byte(phase >> 24)
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

// legacyV1Encode re-encodes ck in the version-1 layout (no engine byte) by
// splicing the byte out of the current encoding and resealing the CRC. The
// snapshot must be a Gauss-Seidel one — version 1 could express nothing
// else.
func legacyV1Encode(t *testing.T, ck *Checkpoint) []byte {
	t.Helper()
	if ck.Engine != EngineGaussSeidel {
		t.Fatalf("version 1 cannot encode engine %v", ck.Engine)
	}
	data, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	v1 := append([]byte(nil), data[:engineByteOffset]...)
	v1 = append(v1, data[engineByteOffset+1:]...)
	v1[len(checkpointMagic)] = 1
	v1[len(checkpointMagic)+1] = 0
	resealCRC(v1)
	return v1
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
	// Migration path: re-encoding emits version 2, which must round-trip.
	migrated, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	again, err := UnmarshalCheckpoint(migrated)
	if err != nil {
		t.Fatalf("migrated snapshot rejected: %v", err)
	}
	if !reflect.DeepEqual(got, again) {
		t.Error("migrating the v1 snapshot to v2 changed its contents")
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
// produced by the codec itself, so the files are regenerated, not
// hand-edited:
//
//	EDGECACHE_REGEN_CORPUS=1 go test -run TestRegenCorpus ./internal/model
func TestRegenCorpus(t *testing.T) {
	if os.Getenv("EDGECACHE_REGEN_CORPUS") == "" {
		t.Skip("set EDGECACHE_REGEN_CORPUS=1 to rewrite testdata/fuzz seed files")
	}
	valid, err := testCheckpoint().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	writeCorpusEntry(t, "FuzzSnapshot", "seed-valid", valid)
	writeCorpusEntry(t, "FuzzSnapshot", "seed-truncated", valid[:len(valid)-9])
	writeCorpusEntry(t, "FuzzSnapshot", "seed-bad-magic", append([]byte("NOTACKPT"), valid[8:]...))

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	writeCorpusEntry(t, "FuzzSnapshot", "seed-flipped-byte", flipped)

	oversized := append([]byte(nil), valid...)
	off := len(oversized) - 4 - 2*healthEntrySize - 4
	oversized[off], oversized[off+1], oversized[off+2], oversized[off+3] = 0xff, 0xff, 0xff, 0xff
	resealCRC(oversized)
	writeCorpusEntry(t, "FuzzSnapshot", "seed-oversized-health-len", oversized)

	legacy := testCheckpoint()
	legacy.Engine = EngineGaussSeidel
	writeCorpusEntry(t, "FuzzSnapshot", "seed-v1-legacy", legacyV1Encode(t, legacy))
	writeCorpusEntry(t, "FuzzSnapshot", "seed-v2-mid-sweep", midSweepBytes(t, testCheckpoint(), 1))
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
