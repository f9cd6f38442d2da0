// Package experiment regenerates the paper's executable content: one
// experiment per protocol figure and theorem (the paper is theory-only, so
// its "tables" are the theorems' claims measured empirically). Every
// experiment is deterministic given its Config and prints a table whose
// shape — who stabilizes, within how many rounds, who fails and why — is
// what the paper predicts. EXPERIMENTS.md records the outputs.
//
//ftss:det E1-E15 tables must be byte-identical across machines
package experiment

import (
	"fmt"
	"io"
	"strings"

	"ftss/internal/obs"
)

// Table is one experiment's rendered result.
type Table struct {
	// ID is the experiment identifier (E1…E15).
	ID string
	// Title names the paper artifact reproduced.
	Title string
	// Claim is the paper's claim being measured.
	Claim string
	// Headers and Rows hold the measurements.
	Headers []string
	Rows    [][]string
	// Notes carries caveats (substitutions, metric definitions).
	Notes string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Render writes an aligned plain-text table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "claim: %s\n", t.Claim)

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
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Headers)
	rule := make([]string, len(t.Headers))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "note: %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "**Claim:** %s\n\n", t.Claim)
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Headers)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\n*%s*\n", t.Notes)
	}
	b.WriteString("\n")
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Config scales every experiment; the defaults regenerate EXPERIMENTS.md,
// and the benchmarks use smaller values.
type Config struct {
	// Seeds is the number of random repetitions per parameter point.
	Seeds int
	// BaseSeed offsets the repetition seeds: runs use BaseSeed+1 through
	// BaseSeed+Seeds. The zero default reproduces EXPERIMENTS.md exactly;
	// a different base re-runs every experiment on a fresh seed class.
	BaseSeed int64
	// Rounds is the synchronous run length per repetition.
	Rounds int
	// HorizonMS is the asynchronous run length per repetition, in virtual
	// milliseconds.
	HorizonMS int
	// Workers bounds the number of repetitions run concurrently. Zero (the
	// default) uses GOMAXPROCS; 1 forces sequential execution. Results are
	// merged in seed order, so every table is byte-identical for any
	// Workers value.
	Workers int
	// Metrics, when non-nil, accumulates run-level instruments
	// (repetition counts, stabilization histograms). Recording happens
	// after the worker-pool merge, so snapshots are byte-identical for
	// any Workers value.
	Metrics *obs.Registry
	// Events, when non-nil, receives per-parameter-point events, emitted
	// post-merge in point order (same determinism guarantee).
	Events obs.Sink
}

// DefaultConfig returns the EXPERIMENTS.md-scale configuration.
func DefaultConfig() Config {
	return Config{Seeds: 100, Rounds: 60, HorizonMS: 1200}
}

// QuickConfig returns a small configuration for tests and smoke runs.
func QuickConfig() Config {
	return Config{Seeds: 10, Rounds: 40, HorizonMS: 800}
}

// All runs every experiment in order.
func All(cfg Config) []*Table {
	return []*Table{
		E1RoundAgreement(cfg),
		E2Theorem1(cfg),
		E3Theorem2(cfg),
		E4Compiler(cfg),
		E5DetectorTransform(cfg),
		E6AsyncConsensus(cfg),
		E7AblationSuspects(cfg),
		E8AblationResend(cfg),
		E9BoundedCounters(cfg),
		E10ImperfectSynchrony(cfg),
		E11StabilizationCost(cfg),
		E12ParameterSweep(cfg),
		E13RepeatedAsyncConsensus(cfg),
		E14NScaling(cfg),
		E15ShardScaling(cfg),
	}
}
