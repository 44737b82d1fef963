package model

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// ClusterSpec describes a multi-process deployment: one BS cell per entry,
// each cell running the DUA protocol over its own SBS fleet, all launched
// and supervised as real OS processes speaking the TCP transport. The spec
// is the document `edgesim -cluster` consumes and the supervisor persists
// into its run directory, so it lives next to the other stable on-disk
// codecs (instance, solution, checkpoint).
//
// Durations are carried as integer milliseconds so the JSON stays plain;
// the accessor methods return time.Duration with the defaults applied.
// Validate caps every duration, the heartbeat deadline included, at 24
// hours.
type ClusterSpec struct {
	// Cells lists the BS cells. Names must be non-empty and unique (they
	// become directory names and chaos targets).
	Cells []ClusterCell `json:"cells"`

	// Gamma and MaxSweeps mirror core.Config (0 means core.Driver's
	// defaults).
	Gamma     float64 `json:"gamma,omitempty"`
	MaxSweeps int     `json:"max_sweeps,omitempty"`
	// PhaseTimeoutMS bounds one BS phase wait. 0 means 2000.
	PhaseTimeoutMS int `json:"phase_timeout_ms,omitempty"`

	// HeartbeatMS is the agent heartbeat interval (0 means 25).
	// HeartbeatMisses is how many intervals may elapse without a beat
	// before the supervisor declares the process dead and kills it
	// (0 means 40, i.e. a one-second deadline at the default interval).
	HeartbeatMS     int `json:"heartbeat_ms,omitempty"`
	HeartbeatMisses int `json:"heartbeat_misses,omitempty"`

	// RestartBudget is the number of supervised restarts each process may
	// consume before escalation (permanent quarantine for an SBS, cell
	// failure for a BS). 0 means 3; -1 means no restarts at all.
	RestartBudget int `json:"restart_budget,omitempty"`
}

const (
	// restartBackoffBase is the delay before the first restart; it doubles
	// per consumed restart up to restartBackoffMax.
	restartBackoffBase = 25 * time.Millisecond
	restartBackoffMax  = time.Second
	// maxSpecDuration bounds every duration a spec can express (the phase
	// timeout, the heartbeat interval and the heartbeat deadline), so the
	// millisecond fields cannot overflow time.Duration.
	maxSpecDuration = 24 * time.Hour
)

// ClusterCell is one BS cell of the cluster: a name, an SBS fleet size and
// either a pre-built instance file or the scenario knobs the launcher
// (cmd/edgesim) interprets to build one. The model layer only validates
// the shape; scenario semantics live with the launcher.
type ClusterCell struct {
	Name string `json:"name"`
	SBSs int    `json:"sbss"`
	// Instance, when non-empty, is the path of an instance JSON file; the
	// scenario fields below are then ignored.
	Instance string `json:"instance,omitempty"`
	// Scenario knobs (see experiments.Scenario); 0 means the launcher
	// default.
	Seed      int64   `json:"seed,omitempty"`
	Groups    int     `json:"groups,omitempty"`
	Links     int     `json:"links,omitempty"`
	Videos    int     `json:"videos,omitempty"`
	CacheCap  int     `json:"cache_capacity,omitempty"`
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// Epsilon and Delta, when Epsilon > 0, enable LPPM on the cell's SBS
	// agents (bit-identity with the in-process reference then no longer
	// holds; see the sim package docs).
	Epsilon float64 `json:"epsilon,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
}

// Validate checks the spec's shape.
func (s *ClusterSpec) Validate() error {
	if len(s.Cells) == 0 {
		return fmt.Errorf("model: cluster spec has no cells")
	}
	seen := make(map[string]int, len(s.Cells))
	for i, c := range s.Cells {
		if c.Name == "" {
			return fmt.Errorf("model: cluster cell %d has no name", i)
		}
		for _, r := range c.Name {
			if r == '/' || r == '.' || r == ' ' || r == ',' || r == '@' {
				return fmt.Errorf("model: cluster cell %q: name may not contain %q (it becomes a path and a chaos target)", c.Name, r)
			}
		}
		if j, dup := seen[c.Name]; dup {
			return fmt.Errorf("model: cluster cells %d and %d share the name %q", j, i, c.Name)
		}
		seen[c.Name] = i
		if c.SBSs <= 0 {
			return fmt.Errorf("model: cluster cell %q: SBSs must be positive, got %d", c.Name, c.SBSs)
		}
		if c.Epsilon < 0 || c.Delta < 0 {
			return fmt.Errorf("model: cluster cell %q: negative privacy parameters", c.Name)
		}
	}
	if s.Gamma < 0 || s.MaxSweeps < 0 || s.PhaseTimeoutMS < 0 ||
		s.HeartbeatMS < 0 || s.HeartbeatMisses < 0 {
		return fmt.Errorf("model: cluster spec has a negative tuning field")
	}
	const maxMS = int64(maxSpecDuration / time.Millisecond)
	if int64(s.PhaseTimeoutMS) > maxMS || int64(s.HeartbeatMS) > maxMS {
		return fmt.Errorf("model: cluster spec durations must be at most %v", maxSpecDuration)
	}
	// The deadline is interval × misses; dividing keeps the check itself
	// from overflowing.
	if interval := int64(s.HeartbeatInterval() / time.Millisecond); int64(s.heartbeatMisses()) > maxMS/interval {
		return fmt.Errorf("model: cluster spec heartbeat deadline (interval × misses) must be at most %v", maxSpecDuration)
	}
	if s.RestartBudget < -1 {
		return fmt.Errorf("model: RestartBudget must be >= -1, got %d", s.RestartBudget)
	}
	return nil
}

// Cell returns the index of the named cell, or -1.
func (s *ClusterSpec) Cell(name string) int {
	for i, c := range s.Cells {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// PhaseTimeout returns the phase timeout with the default applied.
func (s *ClusterSpec) PhaseTimeout() time.Duration {
	if s.PhaseTimeoutMS <= 0 {
		return 2 * time.Second
	}
	return time.Duration(s.PhaseTimeoutMS) * time.Millisecond
}

// HeartbeatInterval returns the agent heartbeat cadence with the default
// applied.
func (s *ClusterSpec) HeartbeatInterval() time.Duration {
	if s.HeartbeatMS <= 0 {
		return 25 * time.Millisecond
	}
	return time.Duration(s.HeartbeatMS) * time.Millisecond
}

// HeartbeatDeadline returns the liveness deadline: the interval times the
// allowed miss count.
func (s *ClusterSpec) HeartbeatDeadline() time.Duration {
	return s.HeartbeatInterval() * time.Duration(s.heartbeatMisses())
}

// heartbeatMisses returns the allowed miss count with the default applied.
func (s *ClusterSpec) heartbeatMisses() int {
	if s.HeartbeatMisses <= 0 {
		return 40
	}
	return s.HeartbeatMisses
}

// Restarts returns the per-process restart budget with the default
// applied (-1 collapses to zero restarts).
func (s *ClusterSpec) Restarts() int {
	switch {
	case s.RestartBudget == 0:
		return 3
	case s.RestartBudget < 0:
		return 0
	default:
		return s.RestartBudget
	}
}

// Backoff returns the delay before restart number attempt (1-based):
// 25ms doubling per consumed restart, capped at one second.
func (s *ClusterSpec) Backoff(attempt int) time.Duration {
	d := restartBackoffBase
	for i := 1; i < attempt && d < restartBackoffMax; i++ {
		d *= 2
	}
	return min(d, restartBackoffMax)
}

// WriteJSON serializes the spec, indented for human inspection; the spec
// is validated first so no malformed cluster description reaches disk.
func (s *ClusterSpec) WriteJSON(w io.Writer) error {
	if err := s.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadClusterSpec deserializes and validates a cluster spec.
func ReadClusterSpec(r io.Reader) (*ClusterSpec, error) {
	var s ClusterSpec
	if err := decodeStrict(r, &s); err != nil {
		return nil, fmt.Errorf("model: decode cluster spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
