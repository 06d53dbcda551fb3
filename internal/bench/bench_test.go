package bench

import (
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// TestAllExperimentsRunSmall executes every registered experiment at small
// scale; this is the integration test that keeps the harness from rotting.
func TestAllExperimentsRunSmall(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(Small)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if tab.ID != e.ID {
				t.Errorf("table id %q, want %q", tab.ID, e.ID)
			}
			if len(tab.Rows) == 0 {
				t.Error("no rows")
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Errorf("row %d has %d cells, header has %d", i, len(row), len(tab.Header))
				}
			}
		})
	}
}

func TestRegistryIdsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Desc == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("e1"); !ok {
		t.Error("case-insensitive Find failed")
	}
	if _, ok := Find("E999"); ok {
		t.Error("phantom experiment found")
	}
}

func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{"small": Small, "S": Small, "full": Full, "LARGE": Full} {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScale("medium"); err == nil {
		t.Error("bad scale accepted")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "T", Title: "test", Header: []string{"a", "bb"}}
	tab.Add(1, 3.14159)
	tab.Add("xyz", 0.00001)
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	if !strings.Contains(out, "== T: test ==") {
		t.Errorf("missing title: %q", out)
	}
	if !strings.Contains(out, "3.142") {
		t.Errorf("float formatting: %q", out)
	}
	if !strings.Contains(out, "1.00e-05") {
		t.Errorf("small float formatting: %q", out)
	}
}

// TestTableAlignsMultiByteLabels: a label with a multi-byte rune (ℓ, τ)
// must not pull its row's later columns left of the header's.
func TestTableAlignsMultiByteLabels(t *testing.T) {
	tab := &Table{ID: "T", Title: "runes", Header: []string{"workload", "n", "rounds"}}
	tab.Add("estimate-rw(ℓ=64)", 96, 65)
	tab.Add("algo2", 96, 100)
	tab.Add("τ", 7, 3)
	var sb strings.Builder
	tab.Fprint(&sb)
	lines := strings.Split(sb.String(), "\n")
	rows := append([][]string{tab.Header}, tab.Rows...)
	body := append([]string{lines[1]}, lines[3:3+len(tab.Rows)]...) // header, then rows (skip the rule)
	var want []int
	for r, line := range body {
		var offs []int
		from := 0
		for _, cell := range rows[r] {
			i := strings.Index(line[from:], cell)
			if i < 0 {
				t.Fatalf("row %d: cell %q missing from %q", r, cell, line)
			}
			offs = append(offs, utf8.RuneCountInString(line[:from+i]))
			from += i + len(cell)
		}
		if want == nil {
			want = offs
		} else if !reflect.DeepEqual(offs, want) {
			t.Errorf("row %q: columns at rune offsets %v, header at %v", line, offs, want)
		}
	}
}

func TestFloatFormatting(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		12345:   "12345",
		42.5:    "42.5",
		0.5:     "0.500",
		0.0001:  "1.00e-04",
		1691.25: "1691",
	}
	for in, want := range cases {
		if got := fmtFloat(in); got != want {
			t.Errorf("fmtFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
