package model

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCorpusCommitted fails when a fuzz target loses its committed seeds
// under testdata/fuzz: plain `go test` (short mode included) replays
// them, so they are part of the regression suite.
func TestCorpusCommitted(t *testing.T) {
	for _, name := range []string{"FuzzMatIndex", "FuzzTensor3Index", "FuzzCachingPolicyBitset", "FuzzSnapshot", "FuzzTrackerEpochs", "FuzzReadJSON", "FuzzClusterSpec"} {
		entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", name))
		if err != nil || len(entries) == 0 {
			t.Errorf("no committed seed corpus for %s (err=%v)", name, err)
		}
	}
}
