package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Headers: []string{"name", "value"},
	}
	tab.AddRow("alpha", 1.5)
	tab.AddRow("b", "text")
	tab.AddRow("gamma", 42)
	tab.AddNote("a note with %d arg", 7)
	s := tab.String()
	for _, want := range []string{"demo", "====", "name", "value", "alpha", "1.50", "text", "42", "note: a note with 7 arg"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
	// Columns aligned: header row and first data row have the same
	// column start for "value".
	lines := strings.Split(s, "\n")
	var header, row string
	for i, l := range lines {
		if strings.HasPrefix(l, "name") {
			header = l
			row = lines[i+2]
		}
	}
	if strings.Index(header, "value") != strings.Index(row, "1.50") {
		t.Fatalf("columns misaligned:\n%s", s)
	}
}

func TestTableNoTitle(t *testing.T) {
	tab := &Table{Headers: []string{"x"}}
	tab.AddRow("y")
	if strings.Contains(tab.String(), "=") {
		t.Fatal("untitled table should have no title rule")
	}
}

func TestF(t *testing.T) {
	if F(1.23456, 2) != "1.23" || F(2, 0) != "2" {
		t.Fatal("F formatting wrong")
	}
}

func TestMBs(t *testing.T) {
	if MBs(312e6) != "312 MB/s" {
		t.Fatalf("got %q", MBs(312e6))
	}
}

func TestSeconds(t *testing.T) {
	cases := map[float64]string{
		2.5:     "2.50 s",
		0.0513:  "51.30 ms",
		0.00051: "510.00 us",
	}
	for in, want := range cases {
		if got := Seconds(in); got != want {
			t.Fatalf("Seconds(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestBytes(t *testing.T) {
	cases := map[int64]string{
		512:           "512 B",
		2048:          "2.00 KiB",
		3 << 20:       "3.00 MiB",
		5 << 30:       "5.00 GiB",
		1<<20 + 1<<19: "1.50 MiB",
	}
	for in, want := range cases {
		if got := Bytes(in); got != want {
			t.Fatalf("Bytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestAddRowMixedTypes(t *testing.T) {
	tab := &Table{Headers: []string{"a", "b", "c"}}
	tab.AddRow(int64(7), 3.14159, true)
	s := tab.String()
	if !strings.Contains(s, "7") || !strings.Contains(s, "3.14") || !strings.Contains(s, "true") {
		t.Fatalf("mixed row rendering wrong:\n%s", s)
	}
}

func TestRowWiderThanHeaders(t *testing.T) {
	tab := &Table{Headers: []string{"a"}}
	tab.AddRow("x", "overflow-cell")
	if !strings.Contains(tab.String(), "overflow-cell") {
		t.Fatal("extra cells dropped")
	}
}
