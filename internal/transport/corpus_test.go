package transport

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// The wire-format fuzz targets keep committed seed corpora under
// testdata/fuzz/<FuzzName>/ so `go test` (short mode included) replays
// them on every run. The frame and payload encodings are produced by the
// codec itself, so the files are regenerated rather than hand-edited:
//
//	EDGECACHE_REGEN_CORPUS=1 go test -run TestRegenCorpus ./internal/transport

// corpusEntry writes one []byte seed in the `go test fuzz v1` format.
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

func TestRegenCorpus(t *testing.T) {
	if os.Getenv("EDGECACHE_REGEN_CORPUS") == "" {
		t.Skip("set EDGECACHE_REGEN_CORPUS=1 to rewrite testdata/fuzz seed files")
	}
	for _, s := range wireSeeds(t) {
		writeCorpusEntry(t, "FuzzFrame", s.name, s.data)
	}

	valid, err := encodeFrame(Message{Type: MsgPhaseStart, Sweep: 1, Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	huge := make([]byte, 8)
	binary.BigEndian.PutUint32(huge, maxFrameSize+1)
	writeCorpusEntry(t, "FuzzReadFrame", "seed-valid-frame", valid)
	writeCorpusEntry(t, "FuzzReadFrame", "seed-truncated-header", valid[:2])
	writeCorpusEntry(t, "FuzzReadFrame", "seed-truncated-body", valid[:len(valid)-1])
	writeCorpusEntry(t, "FuzzReadFrame", "seed-garbage-body", append(append([]byte(nil), valid[:4]...), 0xde, 0xad))
	writeCorpusEntry(t, "FuzzReadFrame", "seed-over-limit-length", huge)

	writeCorpusEntry(t, "FuzzDecodePayload", "seed-aggregate",
		mustEncode(t, AggregateAnnounce{YMinus: [][]float64{{0.5, 0}, {1, 0.25}}}))
	writeCorpusEntry(t, "FuzzDecodePayload", "seed-upload",
		mustEncode(t, PolicyUpload{Cache: []bool{true}, Routing: [][]float64{{0.5}}}))
	writeCorpusEntry(t, "FuzzDecodePayload", "seed-garbage", []byte("garbage"))
}

// TestCorpusCommitted fails when a fuzz target loses its committed seeds:
// the corpus is part of the regression suite, not an optional extra.
func TestCorpusCommitted(t *testing.T) {
	for _, name := range []string{"FuzzFrame", "FuzzReadFrame", "FuzzDecodePayload"} {
		entries, err := os.ReadDir(filepath.Join("testdata", "fuzz", name))
		if err != nil || len(entries) == 0 {
			t.Errorf("no committed seed corpus for %s (err=%v); regenerate with EDGECACHE_REGEN_CORPUS=1", name, err)
		}
	}
}
