package model

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// decodeStrict decodes exactly one JSON value from r into v. It rejects
// fields v does not declare and anything but whitespace after the value,
// so a truncated edit or two concatenated documents fail loudly instead of
// silently yielding the first one.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// instanceJSON is the stable on-disk schema for Instance. Field names are
// spelled out so saved scenarios remain readable and diffable.
type instanceJSON struct {
	SBSs      int         `json:"sbss"`
	Groups    int         `json:"groups"`
	Contents  int         `json:"contents"`
	Demand    [][]float64 `json:"demand"`
	Links     [][]bool    `json:"links"`
	CacheCap  []int       `json:"cache_capacity"`
	Bandwidth []float64   `json:"bandwidth"`
	EdgeCost  [][]float64 `json:"edge_cost"`
	BSCost    []float64   `json:"bs_cost"`
}

// WriteJSON serializes the instance, indented for human inspection. The
// instance is validated first so no malformed scenario reaches disk.
func (in *Instance) WriteJSON(w io.Writer) error {
	if err := in.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(instanceJSON{
		SBSs:      in.N,
		Groups:    in.U,
		Contents:  in.F,
		Demand:    in.Demand,
		Links:     in.Links,
		CacheCap:  in.CacheCap,
		Bandwidth: in.Bandwidth,
		EdgeCost:  in.EdgeCost,
		BSCost:    in.BSCost,
	})
}

// ReadJSON deserializes and validates an instance.
func ReadJSON(r io.Reader) (*Instance, error) {
	var raw instanceJSON
	if err := decodeStrict(r, &raw); err != nil {
		return nil, fmt.Errorf("model: decode instance: %w", err)
	}
	in := &Instance{
		N: raw.SBSs, U: raw.Groups, F: raw.Contents,
		Demand:    raw.Demand,
		Links:     raw.Links,
		CacheCap:  raw.CacheCap,
		Bandwidth: raw.Bandwidth,
		EdgeCost:  raw.EdgeCost,
		BSCost:    raw.BSCost,
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// solutionJSON is the stable on-disk schema for Solution.
type solutionJSON struct {
	Caching  [][]bool      `json:"caching"`
	Routing  [][][]float64 `json:"routing"`
	Edge     float64       `json:"edge_cost"`
	Backhaul float64       `json:"backhaul_cost"`
	Total    float64       `json:"total_cost"`
}

// WriteJSON serializes the solution.
func (s *Solution) WriteJSON(w io.Writer) error {
	if s.Caching == nil || s.Routing == nil {
		return fmt.Errorf("model: solution missing policies")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(solutionJSON{
		Caching:  s.Caching.Bools(),
		Routing:  s.Routing.Blocks(),
		Edge:     s.Cost.Edge,
		Backhaul: s.Cost.Backhaul,
		Total:    s.Cost.Total,
	})
}
