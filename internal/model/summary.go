package model

import (
	"fmt"
	"strings"
)

// InstanceSummary is a human-oriented digest of an instance, used by the
// CLI tools to sanity-check a scenario before a run.
type InstanceSummary struct {
	SBSs, Groups, Contents int
	Links                  int
	// CoveredGroups counts MU groups with at least one SBS link;
	// MeanDegree is the average number of links per covered group.
	CoveredGroups int
	MeanDegree    float64
	// TotalDemand and ReachableDemand are the aggregate request rates (all
	// and edge-servable); TopContentShare is the demand fraction of the
	// most popular content.
	TotalDemand, ReachableDemand float64
	TopContentShare              float64
	// TotalCacheSlots and TotalBandwidth sum the SBS resources;
	// BandwidthDemandRatio is TotalBandwidth / TotalDemand (∞-safe: 0 when
	// demand is 0).
	TotalCacheSlots      int
	TotalBandwidth       float64
	BandwidthDemandRatio float64
	// MaxCost is the all-backhaul ceiling W.
	MaxCost float64
}

// Summarize computes the digest.
func (in *Instance) Summarize() InstanceSummary {
	s := InstanceSummary{
		SBSs:            in.N,
		Groups:          in.U,
		Contents:        in.F,
		Links:           in.LinkCount(),
		TotalDemand:     in.TotalDemand(),
		ReachableDemand: in.ReachableDemand(),
		MaxCost:         in.MaxCost(),
	}
	degreeSum := 0
	for u := 0; u < in.U; u++ {
		degree := 0
		for n := 0; n < in.N; n++ {
			if in.Links[n][u] {
				degree++
			}
		}
		if degree > 0 {
			s.CoveredGroups++
			degreeSum += degree
		}
	}
	if s.CoveredGroups > 0 {
		s.MeanDegree = float64(degreeSum) / float64(s.CoveredGroups)
	}
	var topDemand float64
	for f := 0; f < in.F; f++ {
		var d float64
		for u := 0; u < in.U; u++ {
			d += in.Demand[u][f]
		}
		if d > topDemand {
			topDemand = d
		}
	}
	if s.TotalDemand > 0 {
		s.TopContentShare = topDemand / s.TotalDemand
	}
	for n := 0; n < in.N; n++ {
		s.TotalCacheSlots += in.CacheCap[n]
		s.TotalBandwidth += in.Bandwidth[n]
	}
	if s.TotalDemand > 0 {
		s.BandwidthDemandRatio = s.TotalBandwidth / s.TotalDemand
	}
	return s
}

// String renders the summary as a short multi-line report.
func (s InstanceSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d SBSs × %d MU groups × %d contents, %d links (%d/%d groups covered, mean degree %.2f)\n",
		s.SBSs, s.Groups, s.Contents, s.Links, s.CoveredGroups, s.Groups, s.MeanDegree)
	fmt.Fprintf(&b, "demand %.1f units (%.1f reachable, top content %.1f%%)\n",
		s.TotalDemand, s.ReachableDemand, 100*s.TopContentShare)
	fmt.Fprintf(&b, "resources: %d cache slots, %.0f bandwidth (%.2fx demand); backhaul ceiling %.0f",
		s.TotalCacheSlots, s.TotalBandwidth, s.BandwidthDemandRatio, s.MaxCost)
	return b.String()
}
