// Package topology generates the connectivity structure of the edge
// network: which MU groups each SBS can serve (the matrix L of l_nu flags)
// and the distance-weighted transmission costs d_nu and d̂_u.
//
// The paper's experiments fix N=3 SBSs and sweep the number of MU groups
// (Fig. 4) and the total number of MU-SBS links (Fig. 5), drawing links
// uniformly at random. This package implements that sampler plus a
// geometric placement model used by the examples.
package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// RandomLinksConfig parameterizes the uniform link sampler.
type RandomLinksConfig struct {
	// SBSs (N) and Groups (U) are the matrix dimensions.
	SBSs, Groups int
	// TotalLinks is the number of (n,u) pairs set to true. It must not
	// exceed SBSs·Groups.
	TotalLinks int
	// EnsureCoverage forces every MU group to receive at least one link
	// when TotalLinks ≥ Groups. Without it some groups may be servable only
	// by the BS, exactly as in the paper's sparse-link scenarios.
	EnsureCoverage bool
	// Seed drives the sampler.
	Seed int64
}

// RandomLinks samples a connectivity matrix with exactly TotalLinks links
// drawn uniformly without replacement.
func RandomLinks(cfg RandomLinksConfig) ([][]bool, error) {
	if cfg.SBSs <= 0 || cfg.Groups <= 0 {
		return nil, fmt.Errorf("topology: dimensions must be positive, got N=%d U=%d", cfg.SBSs, cfg.Groups)
	}
	total := cfg.SBSs * cfg.Groups
	if cfg.TotalLinks < 0 || cfg.TotalLinks > total {
		return nil, fmt.Errorf("topology: TotalLinks=%d outside [0,%d]", cfg.TotalLinks, total)
	}
	if cfg.EnsureCoverage && cfg.TotalLinks < cfg.Groups {
		return nil, fmt.Errorf("topology: cannot cover %d groups with %d links", cfg.Groups, cfg.TotalLinks)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	links := make([][]bool, cfg.SBSs)
	for n := range links {
		links[n] = make([]bool, cfg.Groups)
	}
	placed := 0
	if cfg.EnsureCoverage {
		// One uniformly chosen SBS per group first.
		for u := 0; u < cfg.Groups; u++ {
			links[rng.Intn(cfg.SBSs)][u] = true
			placed++
		}
	}
	// Fill the remainder by sampling free cells uniformly without
	// replacement (Fisher-Yates over the free-cell list).
	free := make([]int, 0, total-placed)
	for n := 0; n < cfg.SBSs; n++ {
		for u := 0; u < cfg.Groups; u++ {
			if !links[n][u] {
				free = append(free, n*cfg.Groups+u)
			}
		}
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	for _, cell := range free[:cfg.TotalLinks-placed] {
		links[cell/cfg.Groups][cell%cfg.Groups] = true
	}
	return links, nil
}

// Point is a planar location in abstract distance units.
type Point struct{ X, Y float64 }

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// GeometricConfig parameterizes the geometric placement model: SBSs and MU
// groups are dropped uniformly in a square field around a central BS, and a
// link exists when an MU group lies within an SBS's coverage radius.
type GeometricConfig struct {
	// SBSs and Groups are the entity counts.
	SBSs, Groups int
	// FieldSize is the side length of the square deployment area; the BS
	// sits at its center.
	FieldSize float64
	// CoverageRadius is the SBS service radius: l_nu = 1 iff
	// dist(SBS n, MU u) ≤ CoverageRadius.
	CoverageRadius float64
	// Seed drives placement.
	Seed int64
}

// Geometric is a placed topology: positions plus the derived connectivity
// and distance matrices.
type Geometric struct {
	BS       Point
	SBSPos   []Point
	GroupPos []Point
	// Links[n][u] reports coverage.
	Links [][]bool
	// SBSDist[n][u] is the SBS-to-group distance; BSDist[u] is the
	// BS-to-group distance. Cost models are built from these.
	SBSDist [][]float64
	BSDist  []float64
}

// PlaceGeometric drops SBSs and MU groups uniformly at random and derives
// connectivity from the coverage radius.
func PlaceGeometric(cfg GeometricConfig) (*Geometric, error) {
	if cfg.SBSs <= 0 || cfg.Groups <= 0 {
		return nil, fmt.Errorf("topology: dimensions must be positive, got N=%d U=%d", cfg.SBSs, cfg.Groups)
	}
	if cfg.FieldSize <= 0 || cfg.CoverageRadius <= 0 {
		return nil, fmt.Errorf("topology: FieldSize and CoverageRadius must be positive, got %v and %v",
			cfg.FieldSize, cfg.CoverageRadius)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Geometric{
		BS:       Point{cfg.FieldSize / 2, cfg.FieldSize / 2},
		SBSPos:   make([]Point, cfg.SBSs),
		GroupPos: make([]Point, cfg.Groups),
		Links:    make([][]bool, cfg.SBSs),
		SBSDist:  make([][]float64, cfg.SBSs),
		BSDist:   make([]float64, cfg.Groups),
	}
	for n := range g.SBSPos {
		g.SBSPos[n] = Point{rng.Float64() * cfg.FieldSize, rng.Float64() * cfg.FieldSize}
	}
	for u := range g.GroupPos {
		g.GroupPos[u] = Point{rng.Float64() * cfg.FieldSize, rng.Float64() * cfg.FieldSize}
		g.BSDist[u] = g.BS.Dist(g.GroupPos[u])
	}
	for n := range g.SBSPos {
		g.Links[n] = make([]bool, cfg.Groups)
		g.SBSDist[n] = make([]float64, cfg.Groups)
		for u := range g.GroupPos {
			d := g.SBSPos[n].Dist(g.GroupPos[u])
			g.SBSDist[n][u] = d
			g.Links[n][u] = d <= cfg.CoverageRadius
		}
	}
	return g, nil
}

// UniformBSCosts draws d̂_u uniformly from [lo, hi], the paper's §V-A setup
// (d̂_u ~ U[100, 150]).
func UniformBSCosts(groups int, lo, hi float64, seed int64) ([]float64, error) {
	if groups <= 0 {
		return nil, fmt.Errorf("topology: groups must be positive, got %d", groups)
	}
	if lo < 0 || hi < lo {
		return nil, fmt.Errorf("topology: invalid cost range [%v,%v]", lo, hi)
	}
	rng := rand.New(rand.NewSource(seed))
	costs := make([]float64, groups)
	for u := range costs {
		costs[u] = lo + rng.Float64()*(hi-lo)
	}
	return costs, nil
}

// ConstantEdgeCosts returns an N×U matrix with every d_nu = c, the paper's
// §V-A setup (d_nu = 1).
func ConstantEdgeCosts(sbss, groups int, c float64) ([][]float64, error) {
	if sbss <= 0 || groups <= 0 {
		return nil, fmt.Errorf("topology: dimensions must be positive, got N=%d U=%d", sbss, groups)
	}
	if c < 0 {
		return nil, fmt.Errorf("topology: cost must be non-negative, got %v", c)
	}
	m := make([][]float64, sbss)
	for n := range m {
		m[n] = make([]float64, groups)
		for u := range m[n] {
			m[n][u] = c
		}
	}
	return m, nil
}

// DistanceEdgeCosts converts a distance matrix into costs with a linear
// model cost = base + perUnit·distance, used by the geometric examples.
func DistanceEdgeCosts(dist [][]float64, base, perUnit float64) ([][]float64, error) {
	if base < 0 || perUnit < 0 {
		return nil, fmt.Errorf("topology: base and perUnit must be non-negative, got %v and %v", base, perUnit)
	}
	m := make([][]float64, len(dist))
	for n, row := range dist {
		m[n] = make([]float64, len(row))
		for u, d := range row {
			m[n][u] = base + perUnit*d
		}
	}
	return m, nil
}
