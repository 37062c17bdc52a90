package cfg

import (
	"testing"
)

func TestLineKeyString(t *testing.T) {
	if (LineKey{Block: 3, Delta: -8}).String() != "b3-8" {
		t.Errorf("got %q", (LineKey{Block: 3, Delta: -8}).String())
	}
	if (LineKey{Block: 1, Delta: 64}).String() != "b1+64" {
		t.Errorf("got %q", (LineKey{Block: 1, Delta: 64}).String())
	}
}

func TestEdgeAndExecAccounting(t *testing.T) {
	g := NewGraph(4)
	g.Exec[0] = 10
	e := NewEdgeCounts(4)
	e.Add(0, 1)
	e.Add(0, 1)
	e.Add(0, 2)
	e.Add(2, 0)
	e.Fill(g)
	if len(g.Edges[0]) != 2 || g.Edges[0][1] != 2 || g.Edges[0][2] != 1 {
		t.Errorf("edges = %v", g.Edges[0])
	}
	if len(g.Edges[2]) != 1 || g.Edges[2][0] != 1 {
		t.Errorf("edges of block 2 = %v", g.Edges[2])
	}
	if g.Edges[1] != nil || g.Edges[3] != nil {
		t.Errorf("blocks without transitions got edges: %v %v", g.Edges[1], g.Edges[3])
	}
	if g.Exec[0] != 10 {
		t.Errorf("Fill touched Exec: %d", g.Exec[0])
	}
}

func TestSiteCreationAndLookup(t *testing.T) {
	g := NewGraph(2)
	k := LineKey{Block: 1, Delta: 0}
	s := g.Site(k)
	s.Count = 5
	if g.Site(k) != s {
		t.Error("Site must return the same aggregate")
	}
	if len(g.Sites) != 1 {
		t.Error("site map corrupted")
	}
}

func TestSortedSitesOrder(t *testing.T) {
	g := NewGraph(4)
	g.Site(LineKey{Block: 1, Delta: 0}).Count = 5
	g.Site(LineKey{Block: 2, Delta: 0}).Count = 9
	g.Site(LineKey{Block: 3, Delta: 0}).Count = 5
	g.Site(LineKey{Block: 3, Delta: 64}).Count = 5
	got := g.SortedSites()
	if got[0].Key.Block != 2 {
		t.Errorf("largest-count site not first: %v", got[0].Key)
	}
	// Ties by (block, delta).
	if got[1].Key.Block != 1 || got[2].Key.Block != 3 || got[2].Key.Delta != 0 || got[3].Key.Delta != 64 {
		t.Errorf("tie order wrong: %v %v %v", got[1].Key, got[2].Key, got[3].Key)
	}
}

// TestFig2Example builds the paper's Fig. 2 miss-annotated CFG: paths
// A→B→E→G→H→K and A→C→E→G→H→K lead to the miss at K; paths through F/I do
// not. The graph must expose exactly the structure context discovery needs:
// K's history samples contain B or C, E, G, H.
func TestFig2Example(t *testing.T) {
	// Block IDs: A=0 B=1 C=2 D=3 E=4 F=5 G=6 H=7 I=8 K=9.
	g := NewGraph(10)
	paths := [][]int32{
		{0, 1, 4, 6, 7, 9}, // A B E G H K (miss)
		{0, 2, 4, 6, 7, 9}, // A C E G H K (miss)
		{0, 3, 5, 6, 8},    // A D F G I (no miss)
		{0, 2, 5, 6, 8},    // A C F G I (no miss)
	}
	for _, p := range paths {
		for _, b := range p {
			g.Exec[b]++
		}
	}
	missKey := LineKey{Block: 9, Delta: 0}
	site := g.Site(missKey)
	for _, p := range paths[:2] {
		var preds []PredEntry
		for i, b := range p[:len(p)-1] {
			preds = append(preds, Pred(b, uint32((len(p)-1-i)*30), uint32((len(p)-1-i)*40)))
		}
		site.Samples = append(site.Samples, Sample{Preds: preds})
		site.Count++
		g.TotalMisses++
	}

	// G executes on all four paths; only half lead to the miss. With each
	// path taken once, the fan-out of G with respect to K is 50% here (the
	// paper's Fig. 2 uses 4 paths through G with 1 leading to K ⇒ 75%).
	if g.Exec[6] != 4 {
		t.Fatalf("G executed %d times", g.Exec[6])
	}
	if g.Site(missKey).Count != 2 {
		t.Fatal("miss count wrong")
	}
	// E appears in every miss history; F in none.
	for _, s := range site.Samples {
		foundE, foundF := false, false
		for _, pe := range s.Preds {
			if pe.Block == 4 {
				foundE = true
			}
			if pe.Block == 5 {
				foundF = true
			}
		}
		if !foundE || foundF {
			t.Error("miss histories must contain E and never F")
		}
	}
}
