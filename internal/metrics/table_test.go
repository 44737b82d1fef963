package metrics

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Fig. 3", "epsilon", "LPPM", "Optimum")
	tb.MustAddRow(0.01, 1234.5, 1100.0)
	tb.MustAddRow("0.1", 1200, int64(1100))
	tb.AddNote("averaged over %d seeds", 5)
	out := tb.String()
	for _, want := range []string{"Fig. 3", "epsilon", "LPPM", "1234.5", "note: averaged over 5 seeds"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", tb.NumRows())
	}
	if got := tb.Cell(1, 0); got != "0.1" {
		t.Errorf("Cell(1,0) = %q, want 0.1", got)
	}
	cols := tb.Columns()
	cols[0] = "mutated"
	if tb.Columns()[0] != "epsilon" {
		t.Error("Columns() exposed internal storage")
	}
}

func TestTableAddRowMismatch(t *testing.T) {
	tb := NewTable("x", "a", "b")
	if err := tb.AddRow(1); err == nil {
		t.Error("want error for cell-count mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAddRow should panic on mismatch")
		}
	}()
	tb.MustAddRow(1, 2, 3)
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("t", "a", "b")
	tb.MustAddRow(1, "x,y")
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := "a,b\n1,\"x,y\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

type stringerCell struct{}

func (stringerCell) String() string { return "S" }

func TestFormatCellKinds(t *testing.T) {
	tb := NewTable("t", "a")
	tb.MustAddRow(stringerCell{})
	tb.MustAddRow(float32(1.5))
	tb.MustAddRow(uint(7)) // falls through to fmt.Sprint
	if tb.Cell(0, 0) != "S" || tb.Cell(1, 0) != "1.5" || tb.Cell(2, 0) != "7" {
		t.Errorf("cells = %q %q %q", tb.Cell(0, 0), tb.Cell(1, 0), tb.Cell(2, 0))
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.MustAddRow(1)
	if strings.Contains(tb.String(), "---") {
		t.Error("untitled table should not render a rule")
	}
}
