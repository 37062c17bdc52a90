// Result type and experiment registry.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"ispy/internal/metrics"
)

// Result is one regenerated table or figure.
type Result struct {
	// ID is the experiment identifier ("fig10", "table1", …).
	ID string
	// Title describes what the paper's artifact shows.
	Title string
	// Paper states the paper's claim for this artifact.
	Paper string
	// Measured states our reproduction's headline numbers in the same
	// terms.
	Measured string
	// Table holds the regenerated rows/series.
	Table *metrics.Table
	// Notes carries caveats (substitutions, metric definitions).
	Notes []string
}

// String renders the result for the CLI.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.ID, r.Title)
	if r.Paper != "" {
		fmt.Fprintf(&b, "paper:    %s\n", r.Paper)
	}
	if r.Measured != "" {
		fmt.Fprintf(&b, "measured: %s\n", r.Measured)
	}
	b.WriteByte('\n')
	if r.Table != nil {
		b.WriteString(r.Table.String())
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Spec registers an experiment.
type Spec struct {
	ID    string
	Title string
	Run   func(*Lab) *Result
}

var registry = map[string]Spec{}

func register(id, title string, run func(*Lab) *Result) {
	registry[id] = Spec{ID: id, Title: title, Run: run}
}

// All returns every registered experiment in presentation order (IDs).
func All() []Spec {
	out := make([]Spec, 0, len(registry))
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}

// IDs returns the experiment IDs in presentation order (table1 first, then
// figures numerically).
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	num := func(id string) int {
		if id == "table1" {
			return -1
		}
		n := 0
		fmt.Sscanf(id, "fig%d", &n)
		return n
	}
	sort.Slice(ids, func(i, j int) bool { return num(ids[i]) < num(ids[j]) })
	return ids
}

// Get returns the experiment with the given ID.
func Get(id string) (Spec, bool) {
	s, ok := registry[id]
	return s, ok
}

// fmtPct renders a percentage with one decimal.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v) }

// skipCells renders a table row for an app (or sweep point) whose
// computation failed: the row label, a SKIPPED annotation naming the error,
// and "-" placeholders out to width columns. Figures degrade to these rows
// instead of aborting the whole run.
func skipCells(name string, err error, width int) []string {
	cells := make([]string, width)
	cells[0] = name
	if width > 1 {
		cells[1] = "SKIPPED (" + errLine(err) + ")"
	}
	for i := 2; i < width; i++ {
		cells[i] = "-"
	}
	return cells
}
