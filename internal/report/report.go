// Package report renders the plain-text tables and series that
// regenerate the paper's figures: aligned columns, captioned tables,
// and small formatting helpers shared by cmd/bwbench, the examples and
// the benchmark harness.
package report

import (
	"fmt"
	"strings"
)

// Table is a captioned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = F(v, 2)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
		b.WriteString(strings.Repeat("=", len(t.Title)) + "\n")
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteString("\n")
	}
	line(t.Headers)
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// SkippedPass describes one optimizer pass step that was rolled back
// and skipped by the verified pipeline.
type SkippedPass struct {
	Pass  string // pass name, e.g. "reduce-storage"
	Where string // nest/array location, may be empty
	Cause string // why it was skipped
}

// Degradation renders the verified pipeline's outcome: which passes
// were skipped (with causes), how many checkpoints were committed, and
// any degradation notes (for example a differential→structural
// downgrade).
func Degradation(mode string, checkpoints int, skipped []SkippedPass, notes []string) *Table {
	t := &Table{Title: "verification report", Headers: []string{"pass", "where", "outcome"}}
	if len(skipped) == 0 {
		t.AddRow("(all passes)", "", "verified ok")
	}
	for _, s := range skipped {
		where := s.Where
		if where == "" {
			where = "-"
		}
		t.AddRow(s.Pass, where, "SKIPPED: "+s.Cause)
	}
	t.AddNote("verify mode %s, %d checkpoint(s) committed", mode, checkpoints)
	for _, n := range notes {
		t.AddNote("%s", n)
	}
	return t
}

// F formats a float with the given precision, trimming to compact form.
func F(v float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, v)
}

// MBs formats a bandwidth in MB/s from bytes/second.
func MBs(bytesPerSec float64) string {
	return fmt.Sprintf("%.0f MB/s", bytesPerSec/1e6)
}

// Seconds formats a duration in seconds with sensible precision.
func Seconds(s float64) string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.2f s", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.2f ms", s*1e3)
	default:
		return fmt.Sprintf("%.2f us", s*1e6)
	}
}

// Gap formats an optimality gap (measured traffic / lower bound);
// gaps of 0 mean "no bound information" and render as n/a.
func Gap(g float64) string {
	if g <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", g)
}

// Bytes formats a byte count with binary units.
func Bytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
