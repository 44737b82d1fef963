package model

import (
	"bytes"
	"strings"
	"testing"
)

func TestInstanceJSONRoundTrip(t *testing.T) {
	in := testInstance()
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != in.N || got.U != in.U || got.F != in.F {
		t.Fatalf("dimensions changed: %d/%d/%d", got.N, got.U, got.F)
	}
	if got.TotalDemand() != in.TotalDemand() || got.LinkCount() != in.LinkCount() {
		t.Error("payload changed through round trip")
	}
	if got.MaxCost() != in.MaxCost() {
		t.Error("costs changed through round trip")
	}
}

func TestWriteJSONValidates(t *testing.T) {
	in := testInstance()
	in.Demand[0][0] = -1
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err == nil {
		t.Error("invalid instance serialized without error")
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Error("garbage: want error")
	}
	if _, err := ReadJSON(strings.NewReader(`{"sbss": 1, "unknown_field": 2}`)); err == nil {
		t.Error("unknown field: want error")
	}
	// Structurally valid JSON but an invalid instance.
	if _, err := ReadJSON(strings.NewReader(`{"sbss": 1, "groups": 1, "contents": 1}`)); err == nil {
		t.Error("missing matrices: want error")
	}
	// Anything but whitespace after a valid instance is an error.
	var buf bytes.Buffer
	if err := testInstance().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.String()
	if _, err := ReadJSON(strings.NewReader(valid + " \n\t")); err != nil {
		t.Errorf("trailing whitespace: %v", err)
	}
	for name, tail := range map[string]string{
		"trailing garbage":    "garbage{",
		"second instance":     valid,
		"stray closing brace": "}",
	} {
		if _, err := ReadJSON(strings.NewReader(valid + tail)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestSolutionJSONRoundTrip(t *testing.T) {
	in := testInstance()
	x := NewCachingPolicy(in)
	x.Set(0, 0, true)
	y := NewRoutingPolicy(in)
	y.Set(0, 0, 0, 0.5)
	sol := &Solution{Caching: x, Routing: y, Cost: TotalServingCost(in, y)}

	var buf bytes.Buffer
	if err := sol.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSolutionJSON(&buf, in)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Caching.Get(0, 0) || got.Routing.At(0, 0, 0) != 0.5 {
		t.Error("policies changed through round trip")
	}
	if got.Cost.Total != sol.Cost.Total {
		t.Errorf("re-derived cost %v != original %v", got.Cost.Total, sol.Cost.Total)
	}
}

func TestSolutionJSONRejectsTrailingBytes(t *testing.T) {
	in := testInstance()
	sol := &Solution{Caching: NewCachingPolicy(in), Routing: NewRoutingPolicy(in)}
	var buf bytes.Buffer
	if err := sol.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.String()
	if _, err := ReadSolutionJSON(strings.NewReader(valid+"\n"), in); err != nil {
		t.Errorf("trailing whitespace: %v", err)
	}
	for name, tail := range map[string]string{
		"trailing garbage": "garbage{",
		"second solution":  valid,
	} {
		if _, err := ReadSolutionJSON(strings.NewReader(valid+tail), in); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestSolutionJSONRejectsInfeasible(t *testing.T) {
	in := testInstance()
	y := NewRoutingPolicy(in)
	y.Set(0, 0, 0, 0.5) // routed without being cached
	sol := &Solution{Caching: NewCachingPolicy(in), Routing: y}
	var buf bytes.Buffer
	if err := sol.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSolutionJSON(&buf, in); err == nil {
		t.Error("infeasible stored solution: want error")
	}
}

func TestSolutionJSONShapeMismatch(t *testing.T) {
	in := testInstance()
	sol := &Solution{Caching: NewCachingPolicy(in), Routing: NewRoutingPolicy(in)}
	var buf bytes.Buffer
	if err := sol.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	other := testInstance()
	other.F = 5
	other.Demand = [][]float64{{1, 1, 1, 1, 1}, {1, 1, 1, 1, 1}, {1, 1, 1, 1, 1}}
	if _, err := ReadSolutionJSON(&buf, other); err == nil {
		t.Error("shape mismatch: want error")
	}
}

func TestSolutionWriteJSONRequiresPolicies(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Solution{}).WriteJSON(&buf); err == nil {
		t.Error("empty solution: want error")
	}
}
