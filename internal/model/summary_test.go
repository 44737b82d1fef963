package model

import (
	"math"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	in := testInstance()
	s := in.Summarize()
	if s.SBSs != 2 || s.Groups != 3 || s.Contents != 4 {
		t.Errorf("dims = %d/%d/%d", s.SBSs, s.Groups, s.Contents)
	}
	if s.Links != 5 {
		t.Errorf("links = %d, want 5", s.Links)
	}
	if s.CoveredGroups != 3 {
		t.Errorf("covered = %d, want 3", s.CoveredGroups)
	}
	// Degrees: MU0→2, MU1→2, MU2→1 ⇒ mean 5/3.
	if math.Abs(s.MeanDegree-5.0/3.0) > 1e-12 {
		t.Errorf("mean degree = %v, want 5/3", s.MeanDegree)
	}
	if s.TotalDemand != 40 || s.ReachableDemand != 40 {
		t.Errorf("demand = %v/%v", s.TotalDemand, s.ReachableDemand)
	}
	// Content demands: f0=12, f1=7, f2=10, f3=11 ⇒ top share 12/40.
	if math.Abs(s.TopContentShare-0.3) > 1e-12 {
		t.Errorf("top share = %v, want 0.3", s.TopContentShare)
	}
	if s.TotalCacheSlots != 3 || s.TotalBandwidth != 30 {
		t.Errorf("resources = %d/%v", s.TotalCacheSlots, s.TotalBandwidth)
	}
	if math.Abs(s.BandwidthDemandRatio-0.75) > 1e-12 {
		t.Errorf("bw/demand = %v, want 0.75", s.BandwidthDemandRatio)
	}
	if s.MaxCost != 4320 {
		t.Errorf("MaxCost = %v", s.MaxCost)
	}
	out := s.String()
	for _, want := range []string{"2 SBSs", "5 links", "3/3 groups covered", "backhaul ceiling 4320"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestSummarizeZeroDemand(t *testing.T) {
	in := testInstance()
	for u := range in.Demand {
		for f := range in.Demand[u] {
			in.Demand[u][f] = 0
		}
	}
	s := in.Summarize()
	if s.TopContentShare != 0 || s.BandwidthDemandRatio != 0 {
		t.Errorf("zero-demand ratios = %v/%v, want 0/0", s.TopContentShare, s.BandwidthDemandRatio)
	}
}
