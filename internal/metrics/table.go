// Package metrics renders experiment results as aligned text tables and
// CSV files — the output layer of the figure-regeneration harness.
package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Table is a titled grid of cells. Build one with NewTable, fill it with
// AddRow, and render it with Render (human-readable) or WriteCSV.
type Table struct {
	Title   string
	Notes   []string
	columns []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, columns: append([]string(nil), columns...)}
}

// AddNote appends a free-text footnote rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// AddRow appends one row. Cells may be strings, fmt.Stringer values,
// integers or floats; floats are rendered with %.4g. The number of cells
// must match the number of columns.
func (t *Table) AddRow(cells ...any) error {
	if len(cells) != len(t.columns) {
		return fmt.Errorf("metrics: row has %d cells, table has %d columns", len(cells), len(t.columns))
	}
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = formatCell(c)
	}
	t.rows = append(t.rows, row)
	return nil
}

// MustAddRow is AddRow for construction sites where a mismatch is a
// programming error.
func (t *Table) MustAddRow(cells ...any) {
	if err := t.AddRow(cells...); err != nil {
		panic(err)
	}
}

func formatCell(c any) string {
	switch v := c.(type) {
	case string:
		return v
	case fmt.Stringer:
		return v.String()
	case float64:
		return strconv.FormatFloat(v, 'g', 5, 64)
	case float32:
		return strconv.FormatFloat(float64(v), 'g', 5, 32)
	case int:
		return strconv.Itoa(v)
	case int64:
		return strconv.FormatInt(v, 10)
	default:
		return fmt.Sprint(v)
	}
}

// Columns returns a copy of the header row.
func (t *Table) Columns() []string { return append([]string(nil), t.columns...) }

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Cell returns the rendered cell at (row, col); it panics on out-of-range
// indices like a slice access would.
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("-", len(t.Title))); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if _, err := fmt.Fprintln(tw, strings.Join(t.columns, "\t")); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(tw, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, note := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", note); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table to a string, for tests and logs.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.Render(&b); err != nil {
		return fmt.Sprintf("metrics: render failed: %v", err)
	}
	return b.String()
}

// WriteCSV writes the header and rows in CSV form (title and notes are
// omitted: CSV output feeds plotting scripts).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.columns); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
