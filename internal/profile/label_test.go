package profile_test

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ispy/internal/cfg"
	"ispy/internal/core"
	"ispy/internal/profile"
	"ispy/internal/sim"
	"ispy/internal/traceio"
	"ispy/internal/workload"
)

var (
	presetsOnce sync.Once
	presets     map[string]*workload.Workload
)

// preset returns the named preset's workload, generated once per test
// binary.
func preset(app string) *workload.Workload {
	presetsOnce.Do(func() {
		presets = make(map[string]*workload.Workload, len(workload.AppNames))
		for _, a := range workload.AppNames {
			presets[a] = workload.Preset(a)
		}
	})
	return presets[app]
}

func budget(w *workload.Workload, measure, warmup uint64) sim.Config {
	scfg := sim.Default().WithWorkloadCPI(w.Params.BackendCPI)
	scfg.MaxInstrs, scfg.WarmupInstrs = measure, warmup
	return scfg
}

// labelTargets instruments the sites core.Prepare would at default options.
func labelTargets(p *profile.Profile) []profile.Targets {
	opt := core.DefaultOptions()
	choices, _ := core.SelectSites(p.Graph, opt)
	var needs []core.SiteChoice
	for _, c := range choices {
		if c.Fanout > opt.FanoutEpsilon {
			needs = append(needs, c)
		}
	}
	return core.LabelTargets(needs)
}

// TestLabelMatchesReference: labeling by replaying the profiling run's trace
// yields exactly the simulated labeling pass's evidence on every preset, at
// the quick budget and with no warmup, at the shortest and longest windows
// Fig. 18 labels with (its 50- and 400-cycle distances plus the 60-cycle
// slack).
func TestLabelMatchesReference(t *testing.T) {
	for _, app := range workload.AppNames {
		t.Run(app, func(t *testing.T) {
			t.Parallel()
			w := preset(app)
			in := workload.DefaultInput(w)
			for _, b := range []struct{ measure, warmup uint64 }{{500_000, 250_000}, {500_000, 0}} {
				scfg := budget(w, b.measure, b.warmup)
				p := profile.Collect(w, in, scfg)
				sites := labelTargets(p)
				if len(sites) == 0 {
					t.Fatalf("%d/%d: no sites to label", b.measure, b.warmup)
				}
				for _, window := range []uint64{110, 460} {
					got := p.Label(scfg, sites, window)
					want := profile.CollectContextsRef(w, in, scfg, sites, window)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%d/%d, window %d: replayed labels differ from the simulated pass's", b.measure, b.warmup, window)
					}
				}
			}
		})
	}
}

// TestUntracedProfilePreparesTheSame: a profile without a trace — one that
// went through traceio, as cache-loaded and uploaded profiles do — gives
// the same analysis evidence as the traced profile it was written from.
func TestUntracedProfilePreparesTheSame(t *testing.T) {
	for _, app := range []string{"tomcat", "verilator"} {
		w := preset(app)
		scfg := budget(w, 500_000, 250_000)
		p := profile.Collect(w, workload.DefaultInput(w), scfg)
		var buf bytes.Buffer
		if err := traceio.WriteProfile(&buf, traceio.ProfileDataOf(p)); err != nil {
			t.Fatal(err)
		}
		pd, err := traceio.ReadProfile(&buf)
		if err != nil {
			t.Fatal(err)
		}
		untraced, err := pd.Rebind()
		if err != nil {
			t.Fatal(err)
		}
		want := core.Prepare(p, scfg, core.DefaultOptions())
		if got := core.Prepare(untraced, scfg, core.DefaultOptions()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the untraced profile's evidence differs from the traced one's", app)
		}
	}
}

// TestLabelReplayDivergencePanics: a trace whose regenerated block stream
// disagrees with the recording — here, the profile claims another input
// than the one it ran — fails loudly instead of labeling.
func TestLabelReplayDivergencePanics(t *testing.T) {
	w := preset("tomcat")
	scfg := budget(w, 200_000, 50_000)
	p := profile.Collect(w, workload.DefaultInput(w), scfg)
	sites := labelTargets(p)
	p.Input.Seed++
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "disagrees with the recorded trace") {
			t.Fatalf("recovered %v, want a trace divergence panic", r)
		}
	}()
	p.Label(scfg, sites, 260)
	t.Fatal("a diverging replay labeled instead of panicking")
}

// TestLabelConcurrent: one profile labels from several goroutines at once,
// replaying its own trace at its own budget and, at two others, a trace
// recorded once per budget for all of them. Every result equals the
// simulated pass's (run it under -race).
func TestLabelConcurrent(t *testing.T) {
	w := preset("tomcat")
	in := workload.DefaultInput(w)
	cfgs := []sim.Config{budget(w, 200_000, 50_000), budget(w, 150_000, 50_000), budget(w, 100_000, 0)}
	p := profile.Collect(w, in, cfgs[0])
	sites := labelTargets(p)
	want := make([]*profile.ContextProfile, len(cfgs))
	for i, scfg := range cfgs {
		want[i] = profile.CollectContextsRef(w, in, scfg, sites, 260)
	}
	var wg sync.WaitGroup
	for g := 0; g < 9; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := g % len(cfgs)
			if got := p.Label(cfgs[i], sites, 260); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("goroutine %d: labels differ from the simulated pass's", g)
			}
		}()
	}
	wg.Wait()
	if n := profile.Recorded(p); n != len(cfgs)-1 {
		t.Errorf("%d traces recorded, want one per budget other than the profile's", n)
	}
	// A profile without a trace records its own once, too.
	untraced := &profile.Profile{Graph: p.Graph, Stats: p.Stats, Workload: w, Input: in}
	for range 2 {
		if got := untraced.Label(cfgs[0], sites, 260); !reflect.DeepEqual(got, want[0]) {
			t.Error("an untraced profile's labels differ from the simulated pass's")
		}
	}
	if n := profile.Recorded(untraced); n != 1 {
		t.Errorf("an untraced profile labeled twice recorded %d traces, want 1", n)
	}
}

// FuzzLabelReplay compares labeling by replay with the simulated reference
// on fuzzed presets, small budgets, windows, and subsets of the chosen sites
// and of their targets.
func FuzzLabelReplay(f *testing.F) {
	f.Add(uint8(0), uint16(40), uint16(10), uint16(260), uint64(0xffff_ffff_ffff_ffff))
	f.Add(uint8(6), uint16(60), uint16(0), uint16(110), uint64(0x5555_5555_5555_5555))
	f.Add(uint8(7), uint16(25), uint16(25), uint16(460), uint64(0x0f0f_0f0f_0f0f_0f0f))
	f.Fuzz(func(t *testing.T, app uint8, measureK, warmupK, window uint16, pick uint64) {
		w := preset(workload.AppNames[int(app)%len(workload.AppNames)])
		in := workload.DefaultInput(w)
		scfg := budget(w, 5_000+uint64(measureK%100)*1_000, uint64(warmupK%60)*1_000)
		p := profile.Collect(w, in, scfg)
		// pick's bits choose the sites, then (rotated) their targets.
		var sites []profile.Targets
		for i, s := range labelTargets(p) {
			if pick>>(i%64)&1 == 0 {
				continue
			}
			var lines []cfg.LineKey
			for j, ln := range s.Lines {
				if pick>>((i+j+1)%64)&1 != 0 {
					lines = append(lines, ln)
				}
			}
			if len(lines) > 0 {
				sites = append(sites, profile.Targets{Site: s.Site, Lines: lines})
			}
		}
		win := uint64(window % 1_000)
		got := p.Label(scfg, sites, win)
		want := profile.CollectContextsRef(w, in, scfg, sites, win)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed labels differ from the simulated pass's (%d sites, window %d)", len(sites), win)
		}
	})
}
