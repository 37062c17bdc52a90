// The nine application presets of the paper's evaluation (§II, §V).
//
// Parameters are calibrated so that each preset reproduces its application's
// *characteristics* as the paper reports them — frontend-boundness ordering
// (Fig. 1: 23–80% of pipeline slots), instruction footprints far exceeding
// the 32 KiB L1I, and, for verilator, extreme spatial locality in generated
// straight-line code (75% of its misses fall within 8-line windows, §VI-A).
// Absolute values are properties of the synthetic substrate, not of HHVM or
// the JVM; see DESIGN.md §1.
package workload

import (
	"fmt"
	"strings"
)

// AppNames lists the nine applications in the paper's (alphabetical) order.
var AppNames = []string{
	"cassandra",
	"drupal",
	"finagle-chirper",
	"finagle-http",
	"kafka",
	"mediawiki",
	"tomcat",
	"verilator",
	"wordpress",
}

// ParseApps splits a comma-separated app list, as the CLIs' -apps flags
// take it, trimming whitespace and dropping empty entries (so "a, b,"
// parses as [a b]). It does not check the names; LookupParams does.
func ParseApps(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// PresetParams returns the generation parameters for a named application,
// with Generate's defaults applied: exactly the Params of the workload
// Preset(name) generates. It panics on unknown names (programming error; use
// AppNames). Callers handling externally supplied names — scenario specs,
// CLI flags, HTTP request bodies — must use LookupParams instead.
func PresetParams(name string) Params {
	p, err := LookupParams(name)
	if err != nil {
		panic(err.Error())
	}
	return p
}

// LookupParams returns the generation parameters for a named application,
// defaults applied as in PresetParams, or an error naming the valid presets
// when the name is unknown. This is the boundary-safe variant of
// PresetParams for untrusted input.
func LookupParams(name string) (Params, error) {
	p, ok := presets[name]
	if !ok {
		return Params{}, fmt.Errorf("workload: unknown app preset %q (valid: %s)",
			name, strings.Join(AppNames, ", "))
	}
	p.setDefaults()
	return p, nil
}

// Preset generates the named application's workload.
func Preset(name string) *Workload { return Generate(PresetParams(name)) }

var presets = map[string]Params{
	// Cassandra: NoSQL storage; JVM service with a moderate request mix and
	// heavy data-side work (higher backend CPI).
	"cassandra": {
		Name: "cassandra", Seed: 0xca55,
		NumTypes: 20, TypeSkew: 1.1,
		HandlerFuncs: 4, HandlerBlocks: 9, BlockInstrs: 12,
		ColdFrac: 0.24, LoopFrac: 0.22, LoopBackProb: 0.75,
		SharedHelpers: 5, SharedHelperBlocks: 6,
		RecvBlocks: 6, MiddleBlocks: 8, LogBlocks: 5, ParseBlocks: 3,
		EngineSlots: 7, EngineSlotProb: 0.60, EngineBlocks: 2, FragmentBlocks: 4,
		BackendCPI: 0.55,
	},
	// Drupal: PHP CMS under HHVM; very large interpreted-code footprint,
	// high frontend-boundness.
	"drupal": {
		Name: "drupal", Seed: 0xd07a,
		NumTypes: 32, TypeSkew: 0.9,
		HandlerFuncs: 4, HandlerBlocks: 10, BlockInstrs: 12,
		ColdFrac: 0.28, LoopFrac: 0.20, LoopBackProb: 0.75,
		SharedHelpers: 6, SharedHelperBlocks: 7,
		RecvBlocks: 6, MiddleBlocks: 8, LogBlocks: 5, ParseBlocks: 3,
		EngineSlots: 9, EngineSlotProb: 0.60, EngineBlocks: 2, FragmentBlocks: 5,
		BackendCPI: 0.42,
	},
	// Finagle-chirper: Twitter's micro-blogging benchmark; RPC-heavy with a
	// medium handler mix.
	"finagle-chirper": {
		Name: "finagle-chirper", Seed: 0xf19c,
		NumTypes: 20, TypeSkew: 1.0,
		HandlerFuncs: 4, HandlerBlocks: 10, BlockInstrs: 10,
		ColdFrac: 0.24, LoopFrac: 0.22, LoopBackProb: 0.75,
		SharedHelpers: 5, SharedHelperBlocks: 6,
		RecvBlocks: 6, MiddleBlocks: 7, LogBlocks: 5, ParseBlocks: 3,
		EngineSlots: 7, EngineSlotProb: 0.60, EngineBlocks: 2, FragmentBlocks: 4,
		BackendCPI: 0.48,
	},
	// Finagle-http: HTTP server; smaller type mix, more shared fast path.
	"finagle-http": {
		Name: "finagle-http", Seed: 0xf194,
		NumTypes: 22, TypeSkew: 1.1,
		HandlerFuncs: 4, HandlerBlocks: 10, BlockInstrs: 10,
		ColdFrac: 0.22, LoopFrac: 0.22, LoopBackProb: 0.75,
		SharedHelpers: 4, SharedHelperBlocks: 6,
		RecvBlocks: 6, MiddleBlocks: 7, LogBlocks: 5, ParseBlocks: 3,
		EngineSlots: 6, EngineSlotProb: 0.55, EngineBlocks: 2, FragmentBlocks: 4,
		BackendCPI: 0.50,
	},
	// Kafka: stream broker; tight hot loops, comparatively low
	// frontend-boundness.
	"kafka": {
		Name: "kafka", Seed: 0x4afc,
		NumTypes: 20, TypeSkew: 1.15,
		HandlerFuncs: 4, HandlerBlocks: 9, BlockInstrs: 14,
		ColdFrac: 0.18, LoopFrac: 0.26, LoopBackProb: 0.78,
		SharedHelpers: 4, SharedHelperBlocks: 6,
		RecvBlocks: 6, MiddleBlocks: 7, LogBlocks: 4, ParseBlocks: 3,
		EngineSlots: 6, EngineSlotProb: 0.55, EngineBlocks: 2, FragmentBlocks: 4,
		BackendCPI: 0.62,
	},
	// Mediawiki: PHP wiki engine under HHVM; like drupal with a slightly
	// smaller footprint.
	"mediawiki": {
		Name: "mediawiki", Seed: 0x3ed1,
		NumTypes: 30, TypeSkew: 0.9,
		HandlerFuncs: 4, HandlerBlocks: 10, BlockInstrs: 12,
		ColdFrac: 0.27, LoopFrac: 0.20, LoopBackProb: 0.75,
		SharedHelpers: 6, SharedHelperBlocks: 7,
		RecvBlocks: 6, MiddleBlocks: 8, LogBlocks: 5, ParseBlocks: 3,
		EngineSlots: 9, EngineSlotProb: 0.60, EngineBlocks: 2, FragmentBlocks: 4,
		BackendCPI: 0.46,
	},
	// Tomcat: servlet container; smallest footprint and frontend-boundness
	// of the nine.
	"tomcat": {
		Name: "tomcat", Seed: 0x70ca,
		NumTypes: 20, TypeSkew: 1.15,
		HandlerFuncs: 4, HandlerBlocks: 9, BlockInstrs: 12,
		ColdFrac: 0.20, LoopFrac: 0.24, LoopBackProb: 0.75,
		SharedHelpers: 4, SharedHelperBlocks: 5,
		RecvBlocks: 5, MiddleBlocks: 7, LogBlocks: 4, ParseBlocks: 3,
		EngineSlots: 5, EngineSlotProb: 0.55, EngineBlocks: 2, FragmentBlocks: 4,
		BackendCPI: 0.68,
	},
	// Verilator: generated RTL-evaluation code — a deterministic cycle of
	// phases of enormous straight-line functions: extreme footprint,
	// extreme spatial locality, little branching, the highest
	// frontend-boundness (Fig. 1's 80% end) and the strongest coalescing
	// opportunity (Fig. 12).
	"verilator": {
		Name: "verilator", Seed: 0x7e21,
		NumTypes: 6, TypeSkew: 0, RoundRobin: true,
		HandlerFuncs: 6, HandlerBlocks: 60, BlockInstrs: 24,
		ColdFrac: 0.06, ColdTakenProb: 0.04, LoopFrac: 0.02,
		SharedHelpers: 2, SharedHelperBlocks: 4,
		RecvBlocks: 4, MiddleBlocks: 6, LogBlocks: 3, ParseBlocks: 2,
		BackendCPI: 0.30,
	},
	// Wordpress: the paper's running example (Figs. 3 and 21); the largest
	// request mix and the strongest accuracy/coverage tension.
	"wordpress": {
		Name: "wordpress", Seed: 0x30bd,
		NumTypes: 36, TypeSkew: 0.85,
		HandlerFuncs: 4, HandlerBlocks: 10, BlockInstrs: 12,
		ColdFrac: 0.30, LoopFrac: 0.20, LoopBackProb: 0.75,
		SharedHelpers: 6, SharedHelperBlocks: 7,
		RecvBlocks: 6, MiddleBlocks: 8, LogBlocks: 5, ParseBlocks: 3,
		EngineSlots: 10, EngineSlotProb: 0.65, EngineBlocks: 2, FragmentBlocks: 5,
		BackendCPI: 0.38,
	},
}
