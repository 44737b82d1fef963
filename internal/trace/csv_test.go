package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestLoadViewsCSVRoundTrip(t *testing.T) {
	// Format compatibility with what cmd/tracegen writes.
	var buf bytes.Buffer
	buf.WriteString("rank,views\n1,150000\n2,80000\n3,4000\n")
	views, err := LoadViewsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{150000, 80000, 4000}
	if len(views) != len(want) {
		t.Fatalf("len = %d, want %d", len(views), len(want))
	}
	for i := range want {
		if views[i] != want[i] {
			t.Errorf("views[%d] = %v, want %v", i, views[i], want[i])
		}
	}
}

func TestLoadViewsCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"empty", ""},
		{"header only", "rank,views\n"},
		{"bad header", "id,count\n1,5\n"},
		{"bad rank", "rank,views\nx,5\n"},
		{"rank gap", "rank,views\n1,5\n3,4\n"},
		{"bad views", "rank,views\n1,abc\n"},
		{"negative views", "rank,views\n1,-2\n"},
		{"NaN views", "rank,views\n1,NaN\n"},
		{"infinite views", "rank,views\n1,+Inf\n"},
		{"wrong columns", "rank,views\n1,2,3\n"},
	}
	for _, tc := range cases {
		if _, err := LoadViewsCSV(strings.NewReader(tc.body)); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}
