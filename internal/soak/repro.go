package soak

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"edgecache/internal/chaos"
)

// Repro is a minimized failing soak episode, serializable as a small text
// file: the violated invariants, the episode seed that rebuilds the exact
// instance, and the minimized fault schedule as a plain -chaos (or
// -proc-chaos) spec string. Everything needed to replay the failure — by
// the soak harness or by hand with edgesim — and nothing else.
type Repro struct {
	// Invariants names the violated invariants (sorted).
	Invariants []string
	// Episode is the failing episode index; Seed its derived seed, which
	// rebuilds the instance at the soak's fixed episode scale.
	Episode int
	Seed    int64
	// Spec is the minimized in-process fault schedule (Schedule.Spec
	// output). Empty for cluster episodes.
	Spec string
	// ProcSpec is the minimized process-fault schedule for cluster
	// episodes (ProcSchedule.Spec output). Empty for in-process episodes.
	ProcSpec string
	// Detail carries the violation messages, one per line, as # comments.
	Detail []string
}

// String renders the repro file body.
func (r Repro) String() string {
	var b strings.Builder
	b.WriteString("# edgecache soak repro — minimized failing fault schedule\n")
	b.WriteString("# replay: go run ./cmd/edgesim -soak -soak-repro <this file>\n")
	for _, d := range r.Detail {
		for _, line := range strings.Split(d, "\n") {
			fmt.Fprintf(&b, "# %s\n", line)
		}
	}
	inv := append([]string(nil), r.Invariants...)
	sort.Strings(inv)
	fmt.Fprintf(&b, "invariants: %s\n", strings.Join(inv, " "))
	fmt.Fprintf(&b, "episode: %d\n", r.Episode)
	fmt.Fprintf(&b, "seed: %d\n", r.Seed)
	if r.Spec != "" {
		fmt.Fprintf(&b, "spec: %s\n", r.Spec)
	}
	if r.ProcSpec != "" {
		fmt.Fprintf(&b, "proc-spec: %s\n", r.ProcSpec)
	}
	return b.String()
}

// WriteFile persists the repro.
func (r Repro) WriteFile(path string) error {
	return os.WriteFile(path, []byte(r.String()), 0o644)
}

// ParseRepro reads a repro file back. The spec strings are re-parsed
// through chaos.ParseSpec/ParseProcSpec so a corrupted file fails here,
// with the parser's self-diagnosing errors, not at replay time.
func ParseRepro(data string) (Repro, error) {
	var r Repro
	for ln, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return Repro{}, fmt.Errorf("soak: repro line %d: want key: value, got %q", ln+1, line)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "invariants":
			r.Invariants = strings.Fields(val)
		case "episode":
			r.Episode, err = strconv.Atoi(val)
		case "seed":
			r.Seed, err = strconv.ParseInt(val, 10, 64)
		case "spec":
			r.Spec = val
			_, err = chaos.ParseSpec(val)
		case "proc-spec":
			r.ProcSpec = val
			_, err = chaos.ParseProcSpec(val)
		default:
			return Repro{}, fmt.Errorf("soak: repro line %d: unknown key %q", ln+1, key)
		}
		if err != nil {
			return Repro{}, fmt.Errorf("soak: repro line %d (%s): %w", ln+1, key, err)
		}
	}
	return r, nil
}

// ParseReproFile reads and parses a repro file.
func ParseReproFile(path string) (Repro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Repro{}, err
	}
	return ParseRepro(string(data))
}
