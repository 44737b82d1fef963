package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandomLinksExactCount(t *testing.T) {
	for _, total := range []int{0, 1, 40, 90} {
		links, err := RandomLinks(RandomLinksConfig{SBSs: 3, Groups: 30, TotalLinks: total, Seed: 1})
		if err != nil {
			t.Fatalf("TotalLinks=%d: %v", total, err)
		}
		if got := countLinks(links); got != total {
			t.Errorf("TotalLinks=%d: CountLinks = %d", total, got)
		}
		if len(links) != 3 || len(links[0]) != 30 {
			t.Fatalf("shape = %dx%d, want 3x30", len(links), len(links[0]))
		}
	}
}

func TestRandomLinksCoverage(t *testing.T) {
	links, err := RandomLinks(RandomLinksConfig{
		SBSs: 3, Groups: 30, TotalLinks: 40, EnsureCoverage: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := countLinks(links); got != 40 {
		t.Fatalf("CountLinks = %d, want 40", got)
	}
	for u := 0; u < 30; u++ {
		covered := false
		for n := 0; n < 3; n++ {
			covered = covered || links[n][u]
		}
		if !covered {
			t.Errorf("group %d not covered", u)
		}
	}
}

func TestRandomLinksDeterministic(t *testing.T) {
	cfg := RandomLinksConfig{SBSs: 3, Groups: 10, TotalLinks: 12, Seed: 9}
	a, _ := RandomLinks(cfg)
	b, _ := RandomLinks(cfg)
	for n := range a {
		for u := range a[n] {
			if a[n][u] != b[n][u] {
				t.Fatal("same seed produced different links")
			}
		}
	}
}

func TestRandomLinksErrors(t *testing.T) {
	cases := []RandomLinksConfig{
		{SBSs: 0, Groups: 5, TotalLinks: 1},
		{SBSs: 2, Groups: 0, TotalLinks: 1},
		{SBSs: 2, Groups: 3, TotalLinks: -1},
		{SBSs: 2, Groups: 3, TotalLinks: 7},
		{SBSs: 2, Groups: 5, TotalLinks: 4, EnsureCoverage: true},
	}
	for i, cfg := range cases {
		if _, err := RandomLinks(cfg); err == nil {
			t.Errorf("case %d: want error for %+v", i, cfg)
		}
	}
}

// Property: the sampler always yields exactly TotalLinks links within shape,
// for arbitrary feasible configurations.
func TestRandomLinksCountProperty(t *testing.T) {
	prop := func(n, u uint8, frac uint8, seed int64, cover bool) bool {
		sbss := int(n%5) + 1
		groups := int(u%20) + 1
		total := int(frac) % (sbss*groups + 1)
		cfg := RandomLinksConfig{SBSs: sbss, Groups: groups, TotalLinks: total, EnsureCoverage: cover, Seed: seed}
		links, err := RandomLinks(cfg)
		if cover && total < groups {
			return err != nil
		}
		if err != nil {
			return false
		}
		return countLinks(links) == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPlaceGeometric(t *testing.T) {
	g, err := PlaceGeometric(GeometricConfig{SBSs: 4, Groups: 25, FieldSize: 100, CoverageRadius: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.SBSPos) != 4 || len(g.GroupPos) != 25 {
		t.Fatal("wrong entity counts")
	}
	if g.BS.X != 50 || g.BS.Y != 50 {
		t.Errorf("BS at %+v, want field center", g.BS)
	}
	for n := range g.SBSPos {
		for u := range g.GroupPos {
			d := g.SBSPos[n].Dist(g.GroupPos[u])
			if math.Abs(d-g.SBSDist[n][u]) > 1e-12 {
				t.Fatalf("SBSDist[%d][%d] = %v, want %v", n, u, g.SBSDist[n][u], d)
			}
			if g.Links[n][u] != (d <= 30) {
				t.Fatalf("Links[%d][%d] inconsistent with distance %v", n, u, d)
			}
		}
	}
	for u := range g.GroupPos {
		if math.Abs(g.BSDist[u]-g.BS.Dist(g.GroupPos[u])) > 1e-12 {
			t.Fatalf("BSDist[%d] mismatch", u)
		}
	}
}

func TestPlaceGeometricErrors(t *testing.T) {
	cases := []GeometricConfig{
		{SBSs: 0, Groups: 1, FieldSize: 1, CoverageRadius: 1},
		{SBSs: 1, Groups: 0, FieldSize: 1, CoverageRadius: 1},
		{SBSs: 1, Groups: 1, FieldSize: 0, CoverageRadius: 1},
		{SBSs: 1, Groups: 1, FieldSize: 1, CoverageRadius: 0},
	}
	for i, cfg := range cases {
		if _, err := PlaceGeometric(cfg); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestUniformBSCosts(t *testing.T) {
	costs, err := UniformBSCosts(100, 100, 150, 11)
	if err != nil {
		t.Fatal(err)
	}
	for u, c := range costs {
		if c < 100 || c > 150 {
			t.Fatalf("costs[%d] = %v outside [100,150]", u, c)
		}
	}
	if _, err := UniformBSCosts(0, 1, 2, 1); err == nil {
		t.Error("groups=0: want error")
	}
	if _, err := UniformBSCosts(2, -1, 2, 1); err == nil {
		t.Error("negative lo: want error")
	}
	if _, err := UniformBSCosts(2, 5, 2, 1); err == nil {
		t.Error("hi<lo: want error")
	}
}

func TestConstantEdgeCosts(t *testing.T) {
	m, err := ConstantEdgeCosts(2, 3, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for n := range m {
		for u := range m[n] {
			if m[n][u] != 1.5 {
				t.Fatalf("m[%d][%d] = %v, want 1.5", n, u, m[n][u])
			}
		}
	}
	if _, err := ConstantEdgeCosts(0, 1, 1); err == nil {
		t.Error("want error for zero dims")
	}
	if _, err := ConstantEdgeCosts(1, 1, -1); err == nil {
		t.Error("want error for negative cost")
	}
}

func TestDistanceEdgeCosts(t *testing.T) {
	dist := [][]float64{{0, 10}, {5, 20}}
	m, err := DistanceEdgeCosts(dist, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{1, 2}, {1.5, 3}}
	for n := range want {
		for u := range want[n] {
			if math.Abs(m[n][u]-want[n][u]) > 1e-12 {
				t.Fatalf("m[%d][%d] = %v, want %v", n, u, m[n][u], want[n][u])
			}
		}
	}
	if _, err := DistanceEdgeCosts(dist, -1, 0); err == nil {
		t.Error("want error for negative base")
	}
}

func TestPointDist(t *testing.T) {
	if got := (Point{0, 0}).Dist(Point{3, 4}); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

// countLinks returns the number of true cells in a connectivity matrix.
func countLinks(links [][]bool) int {
	count := 0
	for _, row := range links {
		for _, l := range row {
			if l {
				count++
			}
		}
	}
	return count
}
