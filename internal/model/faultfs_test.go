package model

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
)

// saveAt stores the canonical test checkpoint stamped at sweep.
func saveAt(t *testing.T, store *CheckpointStore, sweep int) *Checkpoint {
	t.Helper()
	ck := testCheckpoint()
	ck.Sweep = sweep
	if err := store.Save(ck); err != nil {
		t.Fatalf("save sweep %d: %v", sweep, err)
	}
	return ck
}

// TestDeepLatestBitRotFallback flips one byte in the newest snapshot on
// disk and asserts DeepLatest falls back to the previous intact snapshot
// and quarantines the corrupt file — the recovery behavior the soak disk
// invariant depends on. Plain Latest keeps its non-mutating skip.
func TestDeepLatestBitRotFallback(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	saveAt(t, store, 1)
	want := saveAt(t, store, 2)
	saveAt(t, store, 3)

	// Flip one byte mid-file in the newest snapshot.
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(dir, names[len(names)-1])
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Plain Latest skips without touching the directory.
	if ck, err := store.Latest(); err != nil || ck.Sweep != want.Sweep {
		t.Fatalf("Latest after bit-rot: ck=%+v err=%v, want sweep %d", ck, err, want.Sweep)
	}
	if _, err := os.Stat(newest); err != nil {
		t.Fatalf("Latest must not move the corrupt file: %v", err)
	}

	// DeepLatest falls back AND quarantines.
	ck, err := store.DeepLatest()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Sweep != want.Sweep || !reflect.DeepEqual(ck, want) {
		t.Fatalf("DeepLatest returned sweep %d, want intact sweep %d", ck.Sweep, want.Sweep)
	}
	if _, err := os.Stat(newest); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt file still under its snapshot name: %v", err)
	}
	if _, err := os.Stat(newest + ".corrupt"); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	// The quarantined file no longer shadows saves or listings.
	names, err = store.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.Contains(n, ".corrupt") {
			t.Fatalf("List returned quarantined file %s", n)
		}
	}
}

// TestSaveENOSPCKeepsStoreReadable forces a disk-full write mid-Save and
// asserts the error surfaces, the temp file is cleaned up, and every
// previously saved snapshot is still readable.
func TestSaveENOSPCKeepsStoreReadable(t *testing.T) {
	dir := t.TempDir()
	clean, err := NewCheckpointStore(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := saveAt(t, clean, 1)

	ffs := NewFaultFS(OSCheckpointFS{}, FaultFSConfig{Seed: 7, ENOSPC: 1})
	faulty, err := NewCheckpointStoreFS(dir, 5, ffs)
	if err != nil {
		t.Fatal(err)
	}
	ck := testCheckpoint()
	ck.Sweep = 2
	if err := faulty.Save(ck); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Save under ENOSPC: err=%v, want ENOSPC", err)
	}
	if got := ffs.Stats().ENOSPC; got == 0 {
		t.Fatal("fault FS reports no injected ENOSPC")
	}

	// No temp or torn file left behind; the old snapshot still loads.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind after failed save", e.Name())
		}
	}
	got, err := clean.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("surviving snapshot changed after failed save")
	}
}

// TestTornRenameRecovery injects a torn rename (prefix lands under the
// final name) and asserts DeepLatest recovers to the previous intact
// snapshot with the torn file quarantined.
func TestTornRenameRecovery(t *testing.T) {
	dir := t.TempDir()
	clean, err := NewCheckpointStore(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := saveAt(t, clean, 1)

	ffs := NewFaultFS(OSCheckpointFS{}, FaultFSConfig{Seed: 3, TornRename: 1})
	faulty, err := NewCheckpointStoreFS(dir, 5, ffs)
	if err != nil {
		t.Fatal(err)
	}
	ck := testCheckpoint()
	ck.Sweep = 2
	// The store believes the save succeeded — that is the point of the
	// torn-rename fault: only CRC verification can catch it later.
	if err := faulty.Save(ck); err != nil {
		t.Fatalf("torn-rename save should appear to succeed: %v", err)
	}
	if ffs.Stats().TornRenames == 0 {
		t.Fatal("fault FS reports no injected torn rename")
	}

	got, err := clean.DeepLatest()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DeepLatest after torn rename returned sweep %d, want %d", got.Sweep, want.Sweep)
	}
	report, err := clean.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if report.Intact != 1 {
		t.Fatalf("Scrub reports %d intact, want 1 (quarantined: %v)", report.Intact, report.Quarantined)
	}
}

// TestScrubQuarantinesAllCorrupt corrupts two of three snapshots and
// checks the Scrub report.
func TestScrubQuarantinesAllCorrupt(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	saveAt(t, store, 1)
	saveAt(t, store, 2)
	saveAt(t, store, 3)
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{names[0], names[2]} {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[0] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	report, err := store.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if report.Intact != 1 || len(report.Quarantined) != 2 {
		t.Fatalf("Scrub report %+v, want 1 intact / 2 quarantined", report)
	}
	ck, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Sweep != 2 {
		t.Fatalf("surviving snapshot sweep %d, want 2", ck.Sweep)
	}
}

// TestFaultFSDeterministic pins that the same seed over the same operation
// sequence injects the same faults — soak repro files record the disk
// seed, so replay depends on it.
func TestFaultFSDeterministic(t *testing.T) {
	run := func() FaultFSStats {
		dir := t.TempDir()
		ffs := NewFaultFS(OSCheckpointFS{}, FaultFSConfig{
			Seed: 99, ShortWrite: 0.3, ENOSPC: 0.2, RenameFail: 0.2, TornRename: 0.2, BitRot: 0.3,
		})
		store, err := NewCheckpointStoreFS(dir, 10, ffs)
		if err != nil {
			t.Fatal(err)
		}
		for sweep := 1; sweep <= 10; sweep++ {
			ck := testCheckpoint()
			ck.Sweep = sweep
			store.Save(ck) // errors are the point
		}
		return ffs.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different injected faults: %+v vs %+v", a, b)
	}
	if a.Total() == 0 {
		t.Fatal("no faults injected at these probabilities")
	}
}
