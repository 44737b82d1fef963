package model

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// CheckpointSink receives snapshots as the run progresses. Save must keep
// the previously saved snapshots recoverable until the new one is durable
// (write-then-rename for the file store).
type CheckpointSink interface {
	Save(*Checkpoint) error
}

// CheckpointSource hands back the newest recoverable snapshot. Stores that
// can both save and load (the file store, the in-memory store) implement
// both interfaces.
type CheckpointSource interface {
	// Latest returns the newest decodable snapshot, or ErrNoCheckpoint
	// when the store is empty.
	Latest() (*Checkpoint, error)
}

// ErrNoCheckpoint is returned by Latest when no snapshot is available.
var ErrNoCheckpoint = errors.New("model: no checkpoint available")

const checkpointExt = ".ckpt"

// CheckpointStore persists snapshots as files in one directory. Writes are
// atomic (temp file, fsync, rename), so a crash mid-save never corrupts an
// existing snapshot; retention prunes all but the newest files. The store
// assumes a single writer (the coordinator process).
type CheckpointStore struct {
	dir    string
	retain int
	fs     CheckpointFS
}

var (
	_ CheckpointSink   = (*CheckpointStore)(nil)
	_ CheckpointSource = (*CheckpointStore)(nil)
)

// NewCheckpointStore opens (creating if needed) a snapshot directory.
// retain is the number of newest snapshots kept; it must be at least 1.
func NewCheckpointStore(dir string, retain int) (*CheckpointStore, error) {
	return NewCheckpointStoreFS(dir, retain, OSCheckpointFS{})
}

// NewCheckpointStoreFS is NewCheckpointStore over an explicit filesystem —
// the seam the soak harness uses to put a fault-injecting FaultFS under an
// otherwise unmodified store.
func NewCheckpointStoreFS(dir string, retain int, fs CheckpointFS) (*CheckpointStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("model: checkpoint store needs a directory")
	}
	if retain < 1 {
		return nil, fmt.Errorf("model: checkpoint store must retain at least 1 snapshot, got %d", retain)
	}
	if fs == nil {
		fs = OSCheckpointFS{}
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("model: checkpoint store: %w", err)
	}
	return &CheckpointStore{dir: dir, retain: retain, fs: fs}, nil
}

// Dir returns the store's directory.
func (s *CheckpointStore) Dir() string { return s.dir }

// fileName renders the canonical snapshot name; zero-padding makes the
// lexicographic order the chronological order. The "-0000" is the phase
// slot of earlier builds' names, kept so old and new files sort together.
func fileName(sweep int) string {
	return fmt.Sprintf("ckpt-%08d-0000%s", sweep, checkpointExt)
}

// Save implements CheckpointSink with write-then-rename atomicity: the
// snapshot becomes visible under its final name only after the bytes are
// durably on disk, so readers (and post-crash recovery) only ever see
// complete files.
func (s *CheckpointStore) Save(ck *Checkpoint) error {
	data, err := ck.MarshalBinary()
	if err != nil {
		return err
	}
	final := filepath.Join(s.dir, fileName(ck.Sweep))
	tmp := final + ".tmp"
	f, err := s.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("model: checkpoint store: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return fmt.Errorf("model: checkpoint store: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return fmt.Errorf("model: checkpoint store: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("model: checkpoint store: close %s: %w", tmp, err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("model: checkpoint store: rename %s: %w", tmp, err)
	}
	return s.prune()
}

// List returns the stored snapshot file names, oldest first.
func (s *CheckpointStore) List() ([]string, error) {
	all, err := s.fs.ReadDirNames(s.dir)
	if err != nil {
		return nil, fmt.Errorf("model: checkpoint store: %w", err)
	}
	var names []string
	for _, name := range all {
		if strings.HasSuffix(name, checkpointExt) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// Latest implements CheckpointSource. A corrupted newest file (e.g. torn
// by a crash on a filesystem without rename atomicity) is skipped in favor
// of the next older decodable one; the collected decode errors are
// reported when nothing is recoverable. Latest renames nothing.
func (s *CheckpointStore) Latest() (*Checkpoint, error) {
	ck, _, err := s.scrub(true, false)
	return ck, err
}

// prune removes stale temp files and all but the newest retain snapshots.
func (s *CheckpointStore) prune() error {
	all, err := s.fs.ReadDirNames(s.dir)
	if err != nil {
		return fmt.Errorf("model: checkpoint store: %w", err)
	}
	var names []string
	for _, name := range all {
		if strings.HasSuffix(name, checkpointExt+".tmp") {
			// A leftover temp file is by definition incomplete (a finished
			// write is renamed away immediately); single-writer contract
			// makes removal safe.
			s.fs.Remove(filepath.Join(s.dir, name))
			continue
		}
		if strings.HasSuffix(name, checkpointExt) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for len(names) > s.retain {
		if err := s.fs.Remove(filepath.Join(s.dir, names[0])); err != nil {
			return fmt.Errorf("model: checkpoint store: prune: %w", err)
		}
		names = names[1:]
	}
	return nil
}

// DeepLatest is Latest with active recovery: every candidate is read and
// CRC-verified newest-first, corrupt files are quarantined (renamed aside
// with a ".corrupt" suffix) instead of merely skipped, and the newest
// intact snapshot is returned. Use it on the resume path after an unclean
// shutdown — unlike Latest it mutates the directory, which is exactly what
// recovery wants (a later save under a quarantined name must not resurrect
// corrupt bytes as the apparent newest snapshot).
func (s *CheckpointStore) DeepLatest() (*Checkpoint, error) {
	ck, _, err := s.scrub(true, true)
	return ck, err
}

// ScrubReport summarizes a Scrub pass.
type ScrubReport struct {
	// Intact counts snapshots that decoded cleanly.
	Intact int
	// Quarantined lists the snapshot file names (pre-rename) that failed
	// CRC or decode and were moved aside.
	Quarantined []string
}

// Scrub CRC-verifies every stored snapshot and quarantines the corrupt
// ones; the report says what was kept and what was moved aside. Scrub is
// the full-sweep variant of DeepLatest for offline checks (soak's disk
// invariant, an operator fsck).
func (s *CheckpointStore) Scrub() (ScrubReport, error) {
	_, report, err := s.scrub(false, true)
	if errors.Is(err, ErrNoCheckpoint) {
		err = nil
	}
	return report, err
}

// scrub walks snapshots newest-first, skipping undecodable ones and, with
// quarantine, renaming them aside. With stopAtFirst it returns the newest
// intact snapshot as soon as it decodes; otherwise it verifies everything.
func (s *CheckpointStore) scrub(stopAtFirst, quarantine bool) (*Checkpoint, ScrubReport, error) {
	names, err := s.List()
	if err != nil {
		return nil, ScrubReport{}, err
	}
	var (
		report  ScrubReport
		newest  *Checkpoint
		badErrs []error
	)
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(s.dir, names[i])
		ck, err := s.verify(path)
		if err != nil {
			badErrs = append(badErrs, fmt.Errorf("%s: %w", names[i], err))
			if !quarantine {
				continue
			}
			if qerr := s.fs.Rename(path, quarantineName(path)); qerr != nil {
				// Quarantine is best-effort: a read-only directory still
				// gets fallback semantics, just without the rename.
				badErrs = append(badErrs, fmt.Errorf("quarantine %s: %w", names[i], qerr))
			}
			report.Quarantined = append(report.Quarantined, names[i])
			continue
		}
		report.Intact++
		if newest == nil {
			newest = ck
			if stopAtFirst {
				return newest, report, nil
			}
		}
	}
	if newest == nil {
		// The caller needed a snapshot back (Latest, DeepLatest) and none
		// survived: that is an error, and the per-file diagnoses matter.
		// A full sweep (Scrub) that quarantined everything did its job —
		// the report records the outcome, so it reads as ErrNoCheckpoint
		// which Scrub maps to success.
		if stopAtFirst && len(badErrs) > 0 {
			return nil, report, fmt.Errorf("model: checkpoint store: no recoverable snapshot: %w", errors.Join(badErrs...))
		}
		return nil, report, ErrNoCheckpoint
	}
	return newest, report, nil
}

// verify reads and decodes one snapshot file (the decode includes the CRC
// check UnmarshalCheckpoint performs).
func (s *CheckpointStore) verify(path string) (*Checkpoint, error) {
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return UnmarshalCheckpoint(data)
}

// MemCheckpointStore keeps snapshots in memory — the sink used by tests
// and by the chaos harness, where durability across processes is not the
// point but crash-resume semantics are. Save round-trips every snapshot
// through the binary codec, so the stored copies are fully isolated from
// the live run AND the codec is exercised on every capture.
type MemCheckpointStore struct {
	mu      sync.Mutex
	entries []*Checkpoint
}

var (
	_ CheckpointSink   = (*MemCheckpointStore)(nil)
	_ CheckpointSource = (*MemCheckpointStore)(nil)
)

// NewMemCheckpointStore returns an in-memory store that keeps every
// snapshot.
func NewMemCheckpointStore() *MemCheckpointStore {
	return &MemCheckpointStore{}
}

// Save implements CheckpointSink.
func (s *MemCheckpointStore) Save(ck *Checkpoint) error {
	data, err := ck.MarshalBinary()
	if err != nil {
		return err
	}
	stored, err := UnmarshalCheckpoint(data)
	if err != nil {
		return fmt.Errorf("model: mem checkpoint store: round-trip: %w", err)
	}
	s.mu.Lock()
	s.entries = append(s.entries, stored)
	s.mu.Unlock()
	return nil
}

// Latest implements CheckpointSource.
func (s *MemCheckpointStore) Latest() (*Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) == 0 {
		return nil, ErrNoCheckpoint
	}
	return s.entries[len(s.entries)-1], nil
}

// All returns the stored snapshots in capture order.
func (s *MemCheckpointStore) All() []*Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Checkpoint(nil), s.entries...)
}

// Len returns the number of stored snapshots.
func (s *MemCheckpointStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
