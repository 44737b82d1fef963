package model

import (
	"bytes"
	"reflect"
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

// TestSolutionJSONRoundTrip decodes WriteJSON's output with the schema
// type: the policies and the cost come back unchanged.
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
	var raw solutionJSON
	if err := decodeStrict(&buf, &raw); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(raw.Caching, x.Bools()) || !reflect.DeepEqual(raw.Routing, y.Blocks()) {
		t.Error("policies changed through round trip")
	}
	if raw.Total != sol.Cost.Total || raw.Edge != sol.Cost.Edge || raw.Backhaul != sol.Cost.Backhaul {
		t.Errorf("cost %v/%v/%v != original %+v", raw.Edge, raw.Backhaul, raw.Total, sol.Cost)
	}
}

func TestSolutionWriteJSONRequiresPolicies(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Solution{}).WriteJSON(&buf); err == nil {
		t.Error("empty solution: want error")
	}
}
