package model

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// clusterSpecSeed is README's three-cell cells.json.
const clusterSpecSeed = `{
  "cells": [
    {"name": "cell-0", "sbss": 3, "seed": 1},
    {"name": "cell-1", "sbss": 3, "seed": 2, "epsilon": 0.1},
    {"name": "cell-2", "sbss": 3, "seed": 3}
  ]
}`

func TestReadClusterSpecRejects(t *testing.T) {
	if _, err := ReadClusterSpec(strings.NewReader(clusterSpecSeed)); err != nil {
		t.Fatalf("valid spec: %v", err)
	}
	const cell = `"cells":[{"name":"a","sbss":1}]`
	for name, doc := range map[string]string{
		"removed backoff_base_ms":   `{` + cell + `,"backoff_base_ms":25}`,
		"removed backoff_max_ms":    `{` + cell + `,"backoff_max_ms":1000}`,
		"removed checkpoint_retain": `{` + cell + `,"checkpoint_retain":2}`,
		"second spec":               clusterSpecSeed + clusterSpecSeed,
		"trailing garbage":          clusterSpecSeed + "x",
		"heartbeat overflow":        `{` + cell + `,"heartbeat_ms":10000000000000}`,
		"phase timeout overflow":    `{` + cell + `,"phase_timeout_ms":10000000000000}`,
		"deadline over a day":       `{` + cell + `,"heartbeat_ms":86400000,"heartbeat_misses":2}`,
		"misses overflow":           `{` + cell + `,"heartbeat_misses":9223372036854775807}`,
	} {
		if _, err := ReadClusterSpec(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	// The bounds are inclusive: a one-day deadline is accepted.
	s, err := ReadClusterSpec(strings.NewReader(`{` + cell + `,"heartbeat_ms":86400000,"heartbeat_misses":1,"phase_timeout_ms":86400000}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.HeartbeatDeadline() != 24*time.Hour || s.PhaseTimeout() != 24*time.Hour {
		t.Errorf("deadline %v, phase timeout %v, want 24h each", s.HeartbeatDeadline(), s.PhaseTimeout())
	}
}

func TestClusterSpecBackoff(t *testing.T) {
	var s ClusterSpec
	want := []time.Duration{25, 50, 100, 200, 400, 800, 1000, 1000}
	for i, w := range want {
		if got := s.Backoff(i + 1); got != w*time.Millisecond {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

// FuzzClusterSpec feeds arbitrary bytes to ReadClusterSpec, the reader of
// `edgesim -cluster -cells`. It must never panic. A spec it accepts must
// round-trip through WriteJSON unchanged, and every duration and count
// accessor of it must be non-negative. Run longer sessions with
// `go test -run '^$' -fuzz=FuzzClusterSpec ./internal/model`.
func FuzzClusterSpec(f *testing.F) {
	f.Add([]byte(clusterSpecSeed))
	f.Add([]byte(`{"cells":[{"name":"a","sbss":1}],"heartbeat_ms":10000000000000}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadClusterSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := s.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON of an accepted spec: %v", err)
		}
		back, err := ReadClusterSpec(&buf)
		if err != nil {
			t.Fatalf("ReadClusterSpec of WriteJSON's output: %v", err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", back, s)
		}
		for name, d := range map[string]time.Duration{
			"PhaseTimeout":      s.PhaseTimeout(),
			"HeartbeatInterval": s.HeartbeatInterval(),
			"HeartbeatDeadline": s.HeartbeatDeadline(),
		} {
			if d < 0 {
				t.Errorf("%s = %v, negative", name, d)
			}
		}
		if s.Restarts() < 0 {
			t.Errorf("Restarts = %d, negative", s.Restarts())
		}
		for attempt := 1; attempt <= 10; attempt++ {
			if d := s.Backoff(attempt); d < 0 {
				t.Errorf("Backoff(%d) = %v, negative", attempt, d)
			}
		}
	})
}
