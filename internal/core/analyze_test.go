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

// evidencePinned holds, per preset, the SHA-256 of dumpEvidence for the
// labeling pass at prepareQuick's budget. On tomcat alone 56 labeled sets
// see more executions than their reservoirs hold, so reservoir replacement
// is covered too.
var evidencePinned = map[string]string{
	"cassandra":       "74f8b6d9788b9d4c8c05754a9d1e52eb19d6f7a181a94950497e6f2ee1ec3368",
	"drupal":          "f050cc6c22d7e3ceb2b27b5905e29943c0715b415de95f34b310ec419fba93a2",
	"finagle-chirper": "b17f7536644b2a838ccf5a0346a1a644583a90571349b6c76a917186ce95cc47",
	"finagle-http":    "a54fabcdae376fd9689c106eedc19a02be823664f75d2c45f09d42aafb320f79",
	"kafka":           "4d971f4344adab8eeeb8a17d3ddf7072098022622b92fd0e8557109d42bdbae0",
	"mediawiki":       "415c95278d360a318ad758c1c342e5e1959bee43c7f341e22ed0a4668fc80dd9",
	"tomcat":          "f061d56440e2c5dbe5b594b375055d42ba25677957a7b1c330adff41bdc68921",
	"verilator":       "1e49620d499735627db97aaa3a63f875cec8ee3509db2e6d25b7f3756436325c",
	"wordpress":       "12ffe7f2adc0b6fc55fbcaea5ec7ebbf940175c14d12d3c86f6277ed835b2a5a",
}

// dumpEvidence writes a canonical text form of cp: every labeled set of the
// instrumented choices in (site, target line) order, with both totals and
// every Pos and Neg snapshot in reservoir order, then each executed site's
// execution count by site. That count is the labels of any one target of
// the site; the dump requires all its targets to agree on it.
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
	var out, execs []byte
	sets := 0
	site, exec := int32(-1), uint64(0)
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
		n := ls.PosTotal + ls.NegTotal
		if c.Site == site {
			if n != exec {
				t.Fatalf("site %d: targets disagree on the execution count (%d, %d)", site, exec, n)
			}
			continue
		}
		site, exec = c.Site, n
		if n > 0 {
			execs = fmt.Appendf(execs, "exec %d %d\n", site, n)
		}
	}
	if sets != len(prep.CP.Sets) {
		t.Fatalf("dumped %d sets, profile holds %d", sets, len(prep.CP.Sets))
	}
	return append(out, execs...)
}

// TestPrepareEvidencePinned pins the labeling pass's output on every
// preset: any change to labels, reservoir draws, expiry order or snapshot
// contents changes a digest.
func TestPrepareEvidencePinned(t *testing.T) {
	for _, app := range workload.AppNames {
		_, prep := prepareQuick(app)
		if prep.CP == nil || len(prep.CP.Sets) == 0 {
			t.Fatalf("%s: no labeled evidence", app)
		}
		sum := sha256.Sum256(dumpEvidence(t, prep))
		if got := hex.EncodeToString(sum[:]); got != evidencePinned[app] {
			t.Errorf("%s: labeled evidence digest = %s, want %s", app, got, evidencePinned[app])
		}
	}
}
