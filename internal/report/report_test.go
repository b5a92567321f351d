package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("T", "Name", "Value")
	tb.AddRow("alpha", "1")
	tb.AddRow("a-longer-name", "2", "extra-ignored")
	tb.AddRow("short")
	s := tb.String()
	if !strings.Contains(s, "T\n") || !strings.Contains(s, "Name") {
		t.Fatalf("render:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 1+1+1+3 { // title, header, rule, rows
		t.Fatalf("line count %d:\n%s", len(lines), s)
	}
	// Alignment: all data lines equal length.
	if len(lines[3]) != len(lines[4]) {
		t.Fatalf("misaligned rows:\n%s", s)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", "plain")
	var buf bytes.Buffer
	tb.CSV(&buf)
	want := "a,b\n\"x,y\",plain\n"
	if buf.String() != want {
		t.Fatalf("csv %q want %q", buf.String(), want)
	}
}

func TestBar(t *testing.T) {
	if Bar(5, 10, 10) != strings.Repeat("█", 5) {
		t.Fatal("half bar")
	}
	if Bar(20, 10, 10) != strings.Repeat("█", 10) {
		t.Fatal("clamped bar")
	}
	if Bar(1, 0, 10) != "" || Bar(-1, 10, 10) != "" {
		t.Fatal("degenerate bars")
	}
}

func TestBarChart(t *testing.T) {
	var buf bytes.Buffer
	BarChart(&buf, "chart", []string{"a", "bb"}, []float64{1, 2}, "FIT")
	if !strings.Contains(buf.String(), "chart") || !strings.Contains(buf.String(), "bb") {
		t.Fatalf("chart:\n%s", buf.String())
	}
}
