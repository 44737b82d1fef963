package model

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCorpusCommitted fails when a fuzz target loses its committed seeds
// under testdata/fuzz: plain `go test` (short mode included) replays
// them, so they are part of the regression suite.
func TestCorpusCommitted(t *testing.T) {
	for _, name := range []string{"FuzzMatIndex", "FuzzTensor3Index", "FuzzCachingPolicyBitset", "FuzzSnapshot", "FuzzTracker", "FuzzReadJSON", "FuzzClusterSpec"} {
		entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", name))
		if err != nil || len(entries) == 0 {
			t.Errorf("no committed seed corpus for %s (err=%v)", name, err)
		}
	}
	// Every named snapshot seed is committed as the codec writes it today:
	// the version-1 and version-2 legacy seeds and the version-3 ones.
	for _, s := range snapshotSeeds(t) {
		if got := readCorpusEntry(t, "FuzzSnapshot", s.name); !bytes.Equal(got, s.data) {
			t.Errorf("FuzzSnapshot/%s differs from what snapshotSeeds builds; regenerate with EDGECACHE_REGEN_CORPUS=1", s.name)
		}
	}
}
