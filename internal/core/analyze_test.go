package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/workload"
)

// quickSimConfig is the quick configuration's headline budget for w: 500k
// instructions measured after 250k of warmup.
func quickSimConfig(w *workload.Workload) sim.Config {
	scfg := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
	scfg.MaxInstrs, scfg.WarmupInstrs = 500_000, 250_000
	return scfg
}

// profileQuick profiles app at quickSimConfig's budget.
func profileQuick(app string) *profile.Profile {
	w := workload.Preset(app)
	return profile.Collect(w, workload.DefaultInput(w), quickSimConfig(w))
}

// prepareQuick profiles app and runs Prepare at quickSimConfig's budget.
func prepareQuick(app string) (*profile.Profile, *Prepared) {
	p := profileQuick(app)
	return p, Prepare(p, quickSimConfig(p.Workload), DefaultOptions())
}

// evidencePinned is the SHA-256 of dumpEvidence for tomcat's labeling pass at
// prepareQuick's budget, where 56 labeled sets see more executions than
// their reservoirs hold, so reservoir replacement is covered too.
const evidencePinned = "f061d56440e2c5dbe5b594b375055d42ba25677957a7b1c330adff41bdc68921"

// dumpEvidence writes a canonical text form of cp: every labeled set of the
// instrumented choices in (site, target line) order, with both totals and
// every Pos and Neg snapshot in reservoir order, then SiteExec by site.
func dumpEvidence(t *testing.T, prep *Prepared) []byte {
	t.Helper()
	needs := append([]SiteChoice(nil), prep.Needs...)
	sort.Slice(needs, func(i, j int) bool {
		a, b := needs[i], needs[j]
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		if a.Target.Block != b.Target.Block {
			return a.Target.Block < b.Target.Block
		}
		return a.Target.Delta < b.Target.Delta
	})
	var out []byte
	sets := 0
	for _, c := range needs {
		ls := prep.CP.Get(c.Site, c.Target)
		if ls == nil {
			t.Fatalf("no labeled set for site %d target %v", c.Site, c.Target)
		}
		sets++
		out = fmt.Appendf(out, "set %d %d/%d pos=%d neg=%d\n", c.Site, c.Target.Block, c.Target.Delta, ls.PosTotal, ls.NegTotal)
		for _, s := range ls.Pos {
			out = fmt.Appendf(out, "+%v\n", s)
		}
		for _, s := range ls.Neg {
			out = fmt.Appendf(out, "-%v\n", s)
		}
	}
	if sets != len(prep.CP.Sets) {
		t.Fatalf("dumped %d sets, profile holds %d", sets, len(prep.CP.Sets))
	}
	sites := make([]int32, 0, len(prep.CP.SiteExec))
	for s := range prep.CP.SiteExec {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	for _, s := range sites {
		out = fmt.Appendf(out, "exec %d %d\n", s, prep.CP.SiteExec[s])
	}
	return out
}

// TestPrepareEvidencePinned pins the labeling pass's output: any change to
// labels, reservoir draws, expiry order or snapshot contents changes the
// digest.
func TestPrepareEvidencePinned(t *testing.T) {
	_, prep := prepareQuick("tomcat")
	if prep.CP == nil || len(prep.CP.Sets) == 0 {
		t.Fatal("no labeled evidence")
	}
	sum := sha256.Sum256(dumpEvidence(t, prep))
	if got := hex.EncodeToString(sum[:]); got != evidencePinned {
		t.Errorf("labeled evidence digest = %s, want %s", got, evidencePinned)
	}
}
