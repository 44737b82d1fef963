package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// LoadViewsCSV reads a view-count vector from CSV in the format tracegen
// emits (`rank,views` header followed by one row per content). It lets a
// user substitute a real trending trace for the synthetic one: feed the
// result into DemandMatrix, or set Scenario.CustomViews.
//
// Rows must be in rank order starting at 1; views must be finite and
// non-negative.
func LoadViewsCSV(r io.Reader) ([]float64, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read views CSV: %w", err)
	}
	if len(records) < 2 {
		return nil, fmt.Errorf("trace: views CSV needs a header and at least one row")
	}
	if records[0][0] != "rank" || records[0][1] != "views" {
		return nil, fmt.Errorf("trace: unexpected header %v, want [rank views]", records[0])
	}
	views := make([]float64, 0, len(records)-1)
	for i, rec := range records[1:] {
		rank, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("trace: row %d rank %q: %w", i+1, rec[0], err)
		}
		if rank != i+1 {
			return nil, fmt.Errorf("trace: row %d has rank %d, want %d (rows must be rank-ordered)", i+1, rank, i+1)
		}
		v, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d views %q: %w", i+1, rec[1], err)
		}
		if v < 0 {
			return nil, fmt.Errorf("trace: row %d has negative views %v", i+1, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("trace: row %d has non-finite views %v", i+1, v)
		}
		views = append(views, v)
	}
	return views, nil
}
