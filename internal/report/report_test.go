package report

import (
	"strings"
	"testing"
)

func TestTableText(t *testing.T) {
	tbl := NewTable("T1: demo", "q", "reducers", "ratio")
	tbl.AddRow(4, 100, 1.5)
	tbl.AddRow(8, 25, 1.25)
	out := tbl.String()
	if !strings.Contains(out, "T1: demo") {
		t.Errorf("missing title in %q", out)
	}
	if !strings.Contains(out, "reducers") || !strings.Contains(out, "1.500") {
		t.Errorf("missing cells in %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Errorf("got %d lines: %q", len(lines), out)
	}
}

func TestTableRowPaddingAndTruncation(t *testing.T) {
	tbl := NewTable("", "a", "bb")
	tbl.AddRow("x", 2, "ignored") // long row truncated
	tbl.AddRow(3.5)               // short row padded
	want := "  a      bb\n" +
		"  -----  --\n" +
		"  x      2 \n" +
		"  3.500    \n\n"
	if got := tbl.String(); got != want {
		t.Errorf("table = %q, want %q", got, want)
	}
}

func TestPad(t *testing.T) {
	if pad("ab", 4) != "ab  " {
		t.Errorf("pad short = %q", pad("ab", 4))
	}
	if pad("abcdef", 4) != "abcdef" {
		t.Errorf("pad long = %q", pad("abcdef", 4))
	}
}

func TestFormatCellFloat32(t *testing.T) {
	if got := formatCell(float32(2)); got != "2.000" {
		t.Errorf("formatCell(float32) = %q", got)
	}
	if got := formatCell("s"); got != "s" {
		t.Errorf("formatCell(string) = %q", got)
	}
}
