package core

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCorpusCommitted fails when a fuzz target of this package loses its
// committed seeds under testdata/fuzz: plain `go test` (short mode
// included) replays them, so they are part of the regression suite.
func TestCorpusCommitted(t *testing.T) {
	for _, target := range []string{"FuzzCoordinator", "FuzzDualLoop", "FuzzLazyCapacities", "FuzzPrimalRecovery", "FuzzRoutingFill", "FuzzStaticOrder"} {
		entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", target))
		if err != nil || len(entries) == 0 {
			t.Errorf("no committed seed corpus for %s (err=%v)", target, err)
		}
	}
}
