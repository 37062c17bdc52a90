package experiments

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// Behavioural contracts of the reproduced results: each ✓ row of
// EXPERIMENTS.md that a figure's table shows becomes a GIVEN/WHEN/THEN
// check on that table, and a ✗ row is pinned at its current sign, so a
// change that inverts a finding fails here and not only in a reader's eye.
// Runs are bit-deterministic, so the checks are exact.

// planFigures are the figures whose tables come from plan summaries, run
// statistics and static sizes: a warm run reads no build.
var planFigures = []string{"fig3", "fig4", "fig14", "fig20", "fig21"}

// TestPlanFigureContracts: GIVEN one lab at the default budget over a fresh
// artifact cache, WHEN Figs. 3, 4, 14, 20 and 21 run on it cold and then on
// a second lab warm over its cache, THEN the warm run misses nothing and
// prints the cold tables, and every contract holds on both.
func TestPlanFigureContracts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheDir = t.TempDir()
	runs := make(map[string]map[string]*Result)
	for _, pass := range []string{"cold", "warm"} {
		l := NewLab(cfg)
		runs[pass] = make(map[string]*Result)
		for _, id := range planFigures {
			spec, _ := Get(id)
			runs[pass][id] = spec.Run(l)
		}
		if !l.Report().Clean() {
			t.Fatalf("%s run failed: %s", pass, l.Report().Summary())
		}
		if m := l.Telemetry().Misses(); pass == "warm" && m != 0 {
			t.Errorf("warm run missed %d times", m)
		}
	}
	for _, id := range planFigures {
		if cold, warm := runs["cold"][id].Table, runs["warm"][id].Table; !reflect.DeepEqual(warm, cold) {
			t.Errorf("%s: warm table %q, want the cold one %q", id, warm.Rows, cold.Rows)
		}
	}

	contracts := []struct {
		name  string
		check func(t *testing.T, res map[string]*Result)
	}{
		// BC-1 (Fig. 3, ✓): GIVEN AsmDB's fan-out thresholds in increasing
		// order, WHEN each is planned and run on wordpress, THEN planned
		// coverage never falls, prefetch accuracy never rises, and the
		// share of ideal speedup peaks at an interior threshold.
		{"BC-1 fig3 coverage rises, accuracy falls, interior peak", func(t *testing.T, res map[string]*Result) {
			rows := res["fig3"].Table.Rows
			peak := 0
			for i := 1; i < len(rows); i++ {
				if pctCell(t, rows[i][1]) < pctCell(t, rows[i-1][1]) {
					t.Errorf("planned coverage falls from %s to %s at threshold %s", rows[i-1][1], rows[i][1], rows[i][0])
				}
				if pctCell(t, rows[i][3]) > pctCell(t, rows[i-1][3]) {
					t.Errorf("accuracy rises from %s to %s at threshold %s", rows[i-1][3], rows[i][3], rows[i][0])
				}
				if pctCell(t, rows[i][4]) > pctCell(t, rows[peak][4]) {
					peak = i
				}
			}
			if peak == 0 || peak == len(rows)-1 {
				t.Errorf("%%-of-ideal peaks at the %s threshold, an end of the sweep", rows[peak][0])
			}
		}},
		// BC-2 (Fig. 4, ✓): GIVEN AsmDB's default build on every app, WHEN
		// its static footprint is priced, THEN the average increase is
		// within 10–17% (the paper reports 13.7%).
		{"BC-2 fig4 AsmDB static increase near the paper's", func(t *testing.T, res map[string]*Result) {
			rows := res["fig4"].Table.Rows
			if len(rows) != len(cfg.Apps) {
				t.Fatalf("%d rows, want one per app (%d)", len(rows), len(cfg.Apps))
			}
			var sum float64
			for _, r := range rows {
				sum += pctCell(t, r[1])
			}
			if avg := sum / float64(len(rows)); avg < 10 || avg > 17 {
				t.Errorf("AsmDB's average static increase is %.2f%%, want 10–17%%", avg)
			}
		}},
		// BC-3 (Fig. 14, ✓): GIVEN AsmDB's and I-SPY's default builds, WHEN
		// their static footprints are priced, THEN I-SPY's increase is below
		// AsmDB's on every app.
		{"BC-3 fig14 I-SPY static footprint below AsmDB's on every app", func(t *testing.T, res map[string]*Result) {
			rows := res["fig14"].Table.Rows
			if len(rows) != len(cfg.Apps) {
				t.Fatalf("%d rows, want one per app (%d)", len(rows), len(cfg.Apps))
			}
			for _, r := range rows {
				if pctCell(t, r[2]) >= pctCell(t, r[1]) {
					t.Errorf("%s: I-SPY static increase %s, AsmDB's %s", r[0], r[2], r[1])
				}
			}
		}},
		// BC-4 (Fig. 20, ✓): GIVEN I-SPY's coalesced prefetches on every
		// app, WHEN their line distances and line counts are tallied, THEN
		// each distance is less probable than the one before, and more than
		// half of them bring fewer than 4 lines.
		{"BC-4 fig20 distance probability decreases, most bring under 4 lines", func(t *testing.T, res map[string]*Result) {
			var dist []float64
			var under4, lines float64
			for _, r := range res["fig20"].Table.Rows {
				p := pctCell(t, r[2])
				switch r[0] {
				case "line distance":
					dist = append(dist, p)
				case "lines per coalesced instr":
					n, err := strconv.Atoi(r[1])
					if err != nil {
						t.Fatal(err)
					}
					if n < 4 {
						under4 += p
					}
					lines += p
				}
			}
			if len(dist) < 2 || lines == 0 {
				t.Fatalf("histograms of %d distances and %.1f%% of line counts: nothing to compare", len(dist), lines)
			}
			for i := 1; i < len(dist); i++ {
				if dist[i] >= dist[i-1] {
					t.Errorf("distance %d has probability %.1f%%, distance %d %.1f%%", i+1, dist[i], i, dist[i-1])
				}
			}
			if under4 <= 50 {
				t.Errorf("%.1f%% of coalesced prefetches bring fewer than 4 lines, want more than half", under4)
			}
		}},
		// BC-5 (Fig. 21, ✓ footprint, ✗ FP trend): GIVEN I-SPY's variants
		// at 4 to 64 context-hash bits on wordpress, WHEN each is priced and
		// run, THEN the static footprint never falls as the hash widens, and
		// the false-positive rate at 64 bits stays above the rate at 4 bits
		// (the paper's falling FP trend does not reproduce: EXPERIMENTS.md).
		{"BC-5 fig21 footprint rises with hash bits, FP trend pinned", func(t *testing.T, res map[string]*Result) {
			rows := res["fig21"].Table.Rows
			for i := 1; i < len(rows); i++ {
				if pctCell(t, rows[i][2]) < pctCell(t, rows[i-1][2]) {
					t.Errorf("static footprint falls from %s to %s at %s bits", rows[i-1][2], rows[i][2], rows[i][0])
				}
			}
			first, last := rows[0], rows[len(rows)-1]
			if first[0] != "4" || last[0] != "64" {
				t.Fatalf("hash widths %s..%s, want 4..64", first[0], last[0])
			}
			if pctCell(t, last[1]) <= pctCell(t, first[1]) {
				t.Errorf("FP rate %s at 64 bits is no longer above %s at 4 bits: update EXPERIMENTS.md's fig21 row", last[1], first[1])
			}
		}},
	}
	for _, pass := range []string{"cold", "warm"} {
		for _, c := range contracts {
			t.Run(pass+"/"+c.name, func(t *testing.T) { c.check(t, runs[pass]) })
		}
	}
}

// pctCell parses a table cell fmtPct printed.
func pctCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a percentage: %v", cell, err)
	}
	return v
}
