package model

import (
	"fmt"
	"strings"
)

// FeasibilityTolerance is the numeric slack allowed when checking the
// constraint system. Solvers in this repository work in float64 and the
// routing sub-problem accumulates sums over U×F terms, so exact comparisons
// would reject optimal solutions.
const FeasibilityTolerance = 1e-6

// Violation describes one violated constraint.
type Violation struct {
	// Constraint names the violated constraint family using the paper's
	// equation numbers: "cache-capacity (1)", "routing-requires-cache (2)",
	// "bandwidth (3)", "no-overserve (4)", or "box".
	Constraint string
	// Where identifies the offending indices (n, u, f as applicable).
	Where string
	// Amount is by how much the constraint is exceeded.
	Amount float64
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at %s exceeded by %.3g", v.Constraint, v.Where, v.Amount)
}

// maxViolations caps a report to bound output on badly broken inputs.
const maxViolations = 100

// CheckFeasibility verifies the full constraint system (eq. 1-4 plus the
// box constraints on x and y) and returns every violation found, up to a
// cap of 100 to bound output on badly broken inputs. A nil/empty result
// means the pair (x, y) is feasible within FeasibilityTolerance. Every
// check is written as !(v <= bound), so a NaN is a violation.
func CheckFeasibility(in *Instance, x *CachingPolicy, y *RoutingPolicy) []Violation {
	var vs violations
	for n := 0; n < in.N; n++ {
		if vs.capacity(in, n, x.Count(n)) {
			return vs
		}
	}
	for n := 0; n < in.N; n++ {
		if vs.routing(in, n, x.RowBools(n), y.SBS(n)) {
			return vs
		}
	}
	for n := 0; n < in.N; n++ {
		if vs.bandwidth(in, n, y.Load(in, n)) {
			return vs
		}
	}

	// Eq. 4: no demand served more than once in total.
	agg := y.Aggregate(in)
	for u := 0; u < in.U; u++ {
		row := agg.Row(u)
		for f := range row {
			if !(row[f] <= 1+FeasibilityTolerance) {
				if vs.add(Violation{"no-overserve (4)", fmt.Sprintf("u=%d f=%d", u, f), row[f] - 1}) {
					return vs
				}
			}
		}
	}
	return vs
}

// CheckSBS verifies the constraints SBS n's own policy must meet on its
// own — cache capacity (1), routing requires cache (2), bandwidth (3), the
// link mask and the box on y — for one caching row and routing block, with
// the same rules and tolerances as CheckFeasibility. No-overserve (4)
// couples the SBSs and is not checked. The BS runs it on every upload
// before installing it.
func CheckSBS(in *Instance, n int, cache []bool, block Mat) []Violation {
	var vs violations
	count := 0
	for _, c := range cache {
		if c {
			count++
		}
	}
	if !vs.capacity(in, n, count) && !vs.routing(in, n, cache, block) {
		vs.bandwidth(in, n, blockLoad(in, n, block))
	}
	return vs
}

// violations accumulates a feasibility report; each check returns true
// once the report is full.
type violations []Violation

func (vs *violations) add(v Violation) bool {
	*vs = append(*vs, v)
	return len(*vs) >= maxViolations
}

// capacity checks eq. 1 for SBS n caching count contents.
func (vs *violations) capacity(in *Instance, n, count int) bool {
	if count > in.CacheCap[n] {
		return vs.add(Violation{"cache-capacity (1)", fmt.Sprintf("n=%d", n), float64(count - in.CacheCap[n])})
	}
	return false
}

// routing checks the box constraints, eq. 2 (routing requires the content
// cached) and the link mask on SBS n's routing block.
func (vs *violations) routing(in *Instance, n int, cache []bool, block Mat) bool {
	for u := 0; u < in.U; u++ {
		row := block.Row(u)
		for f := range row {
			v := row[f]
			if !(v >= -FeasibilityTolerance && v <= 1+FeasibilityTolerance) {
				if vs.add(Violation{"box", fmt.Sprintf("n=%d u=%d f=%d", n, u, f), boxExcess(v)}) {
					return true
				}
				continue
			}
			if !(v <= FeasibilityTolerance) && !cache[f] {
				if vs.add(Violation{"routing-requires-cache (2)", fmt.Sprintf("n=%d u=%d f=%d", n, u, f), v}) {
					return true
				}
			}
			if !(v <= FeasibilityTolerance) && !in.Links[n][u] {
				if vs.add(Violation{"no-link", fmt.Sprintf("n=%d u=%d f=%d", n, u, f), v}) {
					return true
				}
			}
		}
	}
	return false
}

// bandwidth checks eq. 3 for SBS n carrying load.
func (vs *violations) bandwidth(in *Instance, n int, load float64) bool {
	if !(load <= in.Bandwidth[n]+bandwidthTol(in.Bandwidth[n])) {
		return vs.add(Violation{"bandwidth (3)", fmt.Sprintf("n=%d", n), load - in.Bandwidth[n]})
	}
	return false
}

// FormatViolations renders violations one per line for error messages.
func FormatViolations(vs []Violation) string {
	lines := make([]string, len(vs))
	for i, v := range vs {
		lines[i] = v.String()
	}
	return strings.Join(lines, "\n")
}

func boxExcess(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v - 1
}

// bandwidthTol scales the feasibility tolerance with the capacity so that
// summing thousands of float64 terms against a large B_n does not produce
// spurious violations.
func bandwidthTol(b float64) float64 {
	tol := FeasibilityTolerance * b
	if tol < FeasibilityTolerance {
		tol = FeasibilityTolerance
	}
	return tol
}
