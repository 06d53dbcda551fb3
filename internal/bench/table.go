package bench

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Scale selects the workload size.
type Scale int

const (
	// Small finishes in well under a second per experiment; used by unit
	// tests and the default benchmarks.
	Small Scale = iota
	// Full is the paper-shaped workload; used by cmd/paperbench.
	Full
)

// ParseScale converts a flag value.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "small", "s":
		return Small, nil
	case "full", "f", "large":
		return Full, nil
	default:
		return Small, fmt.Errorf("bench: unknown scale %q (want small or full)", s)
	}
}

// Table is one experiment's result, ready for printing.
type Table struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// Add appends a row; values are formatted with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmtFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func fmtFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.2e", v)
	}
}

// Fprint renders the table with aligned columns, measured in runes so that
// labels such as ℓ or τ keep every column at one offset.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(c))
			}
		}
	}
	printRow := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	printRow(t.Header)
	total := len(widths) - 1
	for _, v := range widths {
		total += v + 1
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range t.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}

// Experiment couples an id with its runner, for registry-driven tools.
type Experiment struct {
	ID   string
	Desc string
	Run  func(Scale) (*Table, error)
}

// All returns the registry of experiments in presentation order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Figure 1 / §2.3(d): β-barbell local-vs-global gap", E1BarbellGap},
		{"E2", "§2.3 graph classes: mixing and local mixing landscape", E2GraphClasses},
		{"E3", "Theorem 1: LOCAL-MIXING-TIME rounds and approximation", E3ApproxRounds},
		{"E4", "Theorem 2: exact algorithm rounds and exactness", E4ExactRounds},
		{"E5", "Theorem 3: push–pull partial information spreading", E5PartialSpreading},
		{"E6", "Headline: computing τ_s vs computing τ_mix (rounds)", E6LocalVsGlobalCost},
		{"E7", "Lemma 2: fixed-point flooding error vs bound", E7RoundingError},
		{"E8", "Lemma 4: escape probability vs ℓ·φ(S)+ε bound", E8EscapeBound},
		{"E9", "Das Sarma et al. [10] sampling grey area", E9SamplingGreyArea},
		{"E10", "§1 spectral relations: λ₂, relaxation and Cheeger", E10SpectralBounds},
		{"E11", "Open problem: τ_s(β) vs weak conductance Φ_β", E11WeakConductance},
		{"E12", "Application: distributed maximum coverage", E12MaxCoverage},
		{"E13", "Footnote 10: push–pull under CONGEST bandwidth", E13CongestSpreading},
		{"E14", "Definition 2: graph-wide τ(β,ε) and source sampling", E14GraphLocalMixing},
		{"E15", "Engine telemetry: liveness and allocation counters", E15EngineCounters},
		{"E16", "Oracle kernel: batched MultiWalk vs serial walks", E16OracleKernel},
		{"E17", "Distributed sweep: worker pool vs serial per-source runs", E17DistributedSweep},
		{"E18", "Dynamic networks: τ under edge churn vs the static graph", E18DynamicChurn},
		{"E19", "Adaptive vs oblivious adversaries: rate-matched inflation", E19AdaptiveAdversaries},
		{"A1", "Ablation: doubling (Thm 1) vs unit increments (Thm 2)", A1DoublingAblation},
		{"A2", "Ablation: the 4ε relaxation of Lemma 3", A2EpsilonRelaxation},
		{"A3", "Ablation: deterministic vs randomized tie-breaking", A3TieBreak},
		{"A4", "Ablation: lazy vs simple walks on bipartite graphs", A4Laziness},
	}
}

// Find returns the experiment with the given id (case-insensitive).
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}
