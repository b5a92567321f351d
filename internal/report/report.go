// Package report renders campaign results as aligned ASCII tables, CSV,
// and terminal bar charts — the textual equivalents of the paper's figures.
// It is the dependency-free base of the presentation layer: internal/figures
// builds every paper table on Table, and the serve figures endpoint ships
// the same tables as JSON (Table marshals its title, headers, and rows).
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; short rows are padded, long rows truncated to the
// header width.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s", widths[i]+2, c)
		}
		fmt.Fprintln(w)
	}
	line(t.Headers)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		line(row)
	}
}

// String renders to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

// CSV writes the table as comma-separated values (quotes fields containing
// commas).
func (t *Table) CSV(w io.Writer) {
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				fmt.Fprintf(w, "%q", c)
			} else {
				fmt.Fprint(w, c)
			}
		}
		fmt.Fprintln(w)
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
}

// Bar renders a horizontal bar scaled so that maxVal spans width runes.
func Bar(val, maxVal float64, width int) string {
	if maxVal <= 0 || val < 0 {
		return ""
	}
	n := int(val / maxVal * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("█", n)
}

// BarChart renders labelled values as a terminal bar chart — the textual
// form of the paper's figures.
func BarChart(w io.Writer, title string, labels []string, values []float64, unit string) {
	fmt.Fprintf(w, "%s\n", title)
	maxVal, maxLabel := 0.0, 0
	for i, v := range values {
		if v > maxVal {
			maxVal = v
		}
		if len(labels[i]) > maxLabel {
			maxLabel = len(labels[i])
		}
	}
	for i, v := range values {
		fmt.Fprintf(w, "  %-*s %8.2f %-4s %s\n", maxLabel, labels[i], v, unit, Bar(v, maxVal, 40))
	}
}
