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
