package dp

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Accountant tracks privacy-budget expenditure across the iterations of a
// distributed run. Each SBS records one Spend per noisy release; the
// accountant reports the sequential-composition total (the sum of the ε of
// every release over the same data) and the parallel-composition bound (the
// maximum ε per disjoint data partition — in the edge-caching model each
// SBS perturbs only its own routing policy, so spends recorded under
// different labels compose in parallel).
//
// The zero value is ready to use and safe for concurrent use.
type Accountant struct {
	mu     sync.Mutex
	spends []Spend
}

// Spend is one recorded privacy expenditure.
type Spend struct {
	// Label partitions spends for parallel composition; the distributed
	// runtime uses the SBS identifier.
	Label string
	// Epsilon is the budget consumed by the release.
	Epsilon float64
}

// Record notes one ε expenditure under a label. Non-positive ε is rejected:
// a release that consumed no budget should simply not be recorded.
func (a *Accountant) Record(label string, epsilon float64) error {
	if epsilon <= 0 {
		return fmt.Errorf("dp: recorded epsilon must be positive, got %v", epsilon)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spends = append(a.spends, Spend{Label: label, Epsilon: epsilon})
	return nil
}

// Count returns the number of recorded spends.
func (a *Accountant) Count() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.spends)
}

// SequentialEpsilon returns the sequential-composition total Σε over all
// spends — the guarantee when every release touches the same data.
func (a *Accountant) SequentialEpsilon() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var total float64
	for _, s := range a.spends {
		total += s.Epsilon
	}
	return total
}

// ParallelEpsilon returns max over labels of the per-label sequential
// total — the guarantee when different labels perturb disjoint data.
func (a *Accountant) ParallelEpsilon() float64 {
	perLabel := a.ByLabel()
	var maxEps float64
	for _, eps := range perLabel {
		if eps > maxEps {
			maxEps = eps
		}
	}
	return maxEps
}

// ByLabel returns the sequential total per label.
func (a *Accountant) ByLabel() map[string]float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]float64)
	for _, s := range a.spends {
		out[s.Label] += s.Epsilon
	}
	return out
}

// Reset discards all recorded spends.
func (a *Accountant) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spends = nil
}

// String renders a stable per-label summary, e.g. for the privacysweep
// example's report.
func (a *Accountant) String() string {
	byLabel := a.ByLabel()
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var b strings.Builder
	fmt.Fprintf(&b, "accountant: %d spends, sequential ε=%.4g, parallel ε=%.4g",
		a.Count(), a.SequentialEpsilon(), a.ParallelEpsilon())
	for _, l := range labels {
		fmt.Fprintf(&b, "\n  %s: ε=%.4g", l, byLabel[l])
	}
	return b.String()
}
