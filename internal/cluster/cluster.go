// Package cluster runs the distributed protocol as a federation of real OS
// processes: one supervisor process launches, per cell, a BS coordinator
// and its SBS agents (each an `edgesim -role bs|sbs` sub-entrypoint of the
// same binary), wires them over the TCP transport, and supervises them —
// liveness via heartbeat deadlines, crash recovery via restart with
// exponential backoff (a restarted BS rehydrates from its CheckpointStore
// and re-attaches live SBSs through the MsgStateSync handshake), and
// escalation once a process exhausts its restart budget (an SBS is left
// permanently down for the BS's quarantine machinery to absorb; a BS takes
// its cell down, gracefully degrading the cluster).
//
// This is the deployment story of the paper's §III made literal: SBSs
// owned by different operators share nothing but protocol messages, and
// the durability PRs demonstrated in-process (quarantine, checkpointed
// resume) is demonstrated here against actual process death — SIGKILL,
// SIGSTOP freezes and delayed spawns scheduled at protocol time through
// internal/chaos's process-fault directives. On the fault-free path the
// cluster's per-cell trajectories are bit-for-bit identical to the
// in-process core.Coordinator, which the acceptance tests assert.
//
// Supervisor and supervisee talk a deliberately tiny line protocol: the
// agent prints "ADDR <addr>" once its listener is bound, "HB <sweep>
// <phase>" on a fixed heartbeat cadence and immediately on every sweep
// transition (that is how protocol time reaches the supervisor's fault
// scheduler), and "DONE" when its run finished; the supervisor feeds each
// agent newline-delimited JSON peer lists on stdin — the first one starts
// the agent, later ones re-announce peers after restarts. Everything else
// (instances, checkpoints, results) moves through files in the run
// directory, laid out one subdirectory per cell.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Role distinguishes the two agent kinds of a cell.
type Role int

// Agent roles.
const (
	// RoleBS is the cell's coordinator (one per cell).
	RoleBS Role = iota
	// RoleSBS is one sub-problem solver (CellSpec.SBSs per cell).
	RoleSBS
)

// String names the role as spelled on the agent command line.
func (r Role) String() string {
	if r == RoleBS {
		return "bs"
	}
	return "sbs"
}

// ParseRole parses an agent -role value.
func ParseRole(s string) (Role, error) {
	switch s {
	case "bs":
		return RoleBS, nil
	case "sbs":
		return RoleSBS, nil
	default:
		return 0, fmt.Errorf("cluster: unknown role %q (want bs or sbs)", s)
	}
}

// Endpoint names within one cell. Cells are isolated TCP islands, so the
// names repeat across cells without ambiguity.
const bsName = "bs"

func sbsEndpointName(i int) string { return fmt.Sprintf("sbs-%d", i) }

// Line protocol between agent stdout and supervisor. Each message is one
// newline-terminated line.
const (
	lineAddr = "ADDR" // ADDR <listen-addr>      — listener bound
	lineHB   = "HB"   // HB <sweep> <phase>      — heartbeat + protocol time
	lineDone = "DONE" // DONE                    — run finished cleanly
)

// PeerAddr is one entry of the peer list the supervisor writes to an
// agent's stdin.
type PeerAddr struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
}

// PeerList is the newline-delimited JSON stdin message carrying peer
// addresses. The first list starts the agent; later lists (sent after a
// peer restarted or a delayed peer finally spawned) update the address
// book in place.
type PeerList struct {
	Peers []PeerAddr `json:"peers"`
}

// AgentResult is the cell outcome the BS agent writes as result.json
// before printing DONE. History uses JSON's shortest round-trip float
// encoding, so the recorded trajectory is bit-exact — the acceptance tests
// compare it against the in-process reference with float64 equality.
type AgentResult struct {
	Converged   bool      `json:"converged"`
	Sweeps      int       `json:"sweeps"`
	CostTotal   float64   `json:"cost_total"`
	History     []float64 `json:"history"`
	Misses      int       `json:"misses,omitempty"`
	Quarantines int       `json:"quarantines,omitempty"`
}

// writeResultFile persists the result atomically (temp + rename), so the
// supervisor — which reads it only after the clean exit that follows —
// never sees a torn file even if the agent dies mid-write.
func writeResultFile(path string, res *AgentResult) error {
	data, err := encodeResult(res)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// encodeResult is result.json's byte form: indented JSON and a newline.
func encodeResult(res *AgentResult) ([]byte, error) {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ReadResultFile loads a BS agent's result.json.
func ReadResultFile(path string) (*AgentResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res, err := decodeResult(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: decode %s: %w", path, err)
	}
	return res, nil
}

// decodeResult parses result.json's bytes.
func decodeResult(data []byte) (*AgentResult, error) {
	var res AgentResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// parseLine splits one agent stdout line into its protocol parts.
// ok=false means the line is not a protocol message (agents keep stdout
// clean, but a foreign Command prefix might not).
func parseLine(line string) (kind string, sweep, phase int, addr string, ok bool) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return "", 0, 0, "", false
	}
	switch fields[0] {
	case lineAddr:
		if len(fields) != 2 {
			return "", 0, 0, "", false
		}
		return lineAddr, 0, 0, fields[1], true
	case lineHB:
		if len(fields) != 3 {
			return "", 0, 0, "", false
		}
		s, err1 := strconv.Atoi(fields[1])
		p, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil {
			return "", 0, 0, "", false
		}
		return lineHB, s, p, "", true
	case lineDone:
		return lineDone, 0, 0, "", true
	}
	return "", 0, 0, "", false
}

// formatFloat renders a float64 for an agent flag with exact round-trip.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// formatDuration renders a duration for an agent flag.
func formatDuration(d time.Duration) string { return d.String() }

// readPeerList decodes one peer-list line.
func readPeerList(line []byte) (*PeerList, error) {
	var pl PeerList
	if err := json.Unmarshal(line, &pl); err != nil {
		return nil, fmt.Errorf("cluster: decode peer list: %w", err)
	}
	return &pl, nil
}

// encodePeerList renders a peer list as one stdin line.
func encodePeerList(pl *PeerList) ([]byte, error) {
	data, err := json.Marshal(pl)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode peer list: %w", err)
	}
	return append(data, '\n'), nil
}
