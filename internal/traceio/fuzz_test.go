// Robustness tests for the decoders: arbitrary bytes — truncated streams,
// flipped bits, adversarial headers — must produce an error or a valid
// value, never a panic and never an unbounded allocation. The artifact cache
// feeds these decoders bytes straight from disk, so a corrupt cache entry
// exercises exactly these paths.
package traceio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ispy/internal/cfg"
	"ispy/internal/isa"
	"ispy/internal/sim"
)

// tinyProgram builds a minimal valid program whose encoding is a few dozen
// bytes, keeping byte-level truncation/mutation sweeps cheap.
func tinyProgram(t testing.TB) *isa.Program {
	p := &isa.Program{
		Funcs: []isa.Func{{Name: "f", Align: 64, Blocks: []int{0, 1}}},
		Blocks: []isa.Block{
			{ID: 0, Func: 0, Instrs: []isa.Instr{
				{Kind: isa.KindALU, Size: 4, TargetBlock: -1},
				{Kind: isa.KindPrefetch, Size: 7, TargetBlock: 1},
			}},
			{ID: 1, Func: 0, Instrs: []isa.Instr{
				{Kind: isa.KindALU, Size: 4, TargetBlock: -1},
			}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	p.Layout()
	return p
}

// tinyProfile builds a small profile with one edge and one sampled site.
func tinyProfile() *ProfileData {
	g := cfg.NewGraph(2)
	g.Exec[0], g.Exec[1] = 5, 3
	g.Cycles[0], g.Cycles[1] = 10, 6
	g.Edges[0] = map[int32]uint64{1: 3}
	s := g.Site(cfg.LineKey{Block: 1, Delta: 0})
	s.Count = 2
	s.Samples = append(s.Samples, cfg.Sample{Preds: []cfg.PredEntry{cfg.Pred(0, 40, 12)}})
	g.TotalMisses = 2
	return &ProfileData{
		WorkloadName: "w", WorkloadSeed: 1, InputName: "in", InputSeed: 2,
		TotalMisses: 2, AvgHashDensity: 0.5, BaseCycles: 100, BaseInstrs: 50,
		Graph: g,
	}
}

// decodeAll runs every decoder over data. A decoder must not panic (or
// allocate enough to abort the process), and the plan summary read must
// fail exactly when DecodePlan fails and otherwise equal the decoded plan's
// summary.
func decodeAll(t *testing.T, data []byte) {
	t.Helper()
	if p, err := DecodeProgram(data); err == nil {
		// A successfully decoded program must be internally consistent —
		// ReadProgram validates before layout, so this can't fail unless
		// that ordering regresses.
		if verr := p.Validate(); verr != nil {
			t.Fatalf("ReadProgram accepted an invalid program: %v", verr)
		}
	}
	if pd, err := DecodeProfile(data); err == nil {
		// encode∘decode is a fixed point: the encoding of an accepted
		// profile decodes to a profile that encodes to the same bytes.
		enc := AppendProfile(nil, pd)
		again, err := DecodeProfile(enc)
		if err != nil {
			t.Fatalf("DecodeProfile rejects the encoding of a profile it accepted: %v", err)
		}
		if !bytes.Equal(AppendProfile(nil, again), enc) {
			t.Fatal("re-encoding a decoded profile changed its bytes")
		}
	}
	_ = CheckProgramHeader(data)
	_, _ = DecodeStats(data)
	_, _ = DecodeScenario(data)
	_, _ = DecodeScenarioRows(data)
	plan, err := DecodePlan(data)
	sum, serr := DecodePlanSummary(data)
	if (err == nil) != (serr == nil) {
		t.Fatalf("DecodePlan err = %v, DecodePlanSummary err = %v", err, serr)
	}
	if err == nil && !reflect.DeepEqual(sum, plan.Summary()) {
		t.Fatalf("DecodePlanSummary = %+v, want the decoded plan's %+v", sum, plan.Summary())
	}
}

// tinyScenario builds a small two-tenant scenario trace.
func tinyScenario() *ScenarioTrace {
	return &ScenarioTrace{
		Name: "t", Seed: 7, Arrival: "gamma", ArrivalShape: 0.5,
		Phases: []float64{0.5, 1.5},
		Tenants: []ScenarioTenant{
			{Name: "a", App: "wordpress", SLO: "interactive", Weight: 2, Seed: 11},
			{Name: "b", App: "kafka", SLO: "batch", Weight: 1, Seed: 12},
		},
		Recs: []ScenarioRec{{Tenant: 0, Phase: 0, Gap: 3}, {Tenant: 1, Phase: 1, Gap: 90}},
	}
}

// encodings returns one valid byte stream per format.
func encodings(t testing.TB) map[string][]byte {
	return map[string][]byte{
		"program":  AppendProgram(nil, tinyProgram(t)),
		"profile":  AppendProfile(nil, tinyProfile()),
		"stats":    AppendStats(nil, &sim.Stats{Instrs: 100, BaseInstrs: 90, Cycles: 250, L1IMisses: 3}),
		"scenario": AppendScenario(nil, tinyScenario()),
		"scenario-rows": AppendScenarioRows(nil, []ScenarioRow{
			{Name: "a", App: "wordpress", SLO: "interactive", Weight: 2, Requests: 9, Blocks: 40, Instrs: 500, Misses: 6},
		}),
		"plan": AppendPlan(nil, tinyPlan()),
	}
}

// TestDecodeTruncationsAndFlipsNeverPanic sweeps every prefix and every
// single-byte corruption of each valid encoding through every decoder — the
// deterministic, always-on counterpart of FuzzDecode.
func TestDecodeTruncationsAndFlipsNeverPanic(t *testing.T) {
	for name, enc := range encodings(t) {
		t.Run(name, func(t *testing.T) {
			for i := 0; i <= len(enc); i++ {
				decodeAll(t, enc[:i])
			}
			for i := range enc {
				mut := append([]byte(nil), enc...)
				mut[i] ^= 0xff
				decodeAll(t, mut)
			}
		})
	}
}

// TestDecodeHugeCountHeaders: a handful of bytes claiming astronomically
// many elements must fail cleanly (the capped-allocation regression).
func TestDecodeHugeCountHeaders(t *testing.T) {
	// programMagic, version, then a giant func count with no backing data.
	huge := []byte{0xd9, 0xa0, 0xcd, 0xca, 0x04, 0x02, 0xff, 0xff, 0xff, 0x0f}
	if _, err := DecodeProgram(huge); err == nil {
		t.Fatal("giant unbacked func count decoded without error")
	}
	// profileMagic, version, tiny header strings, then a giant block count.
	var e writer
	e.uvarint(profileMagic)
	e.uvarint(version)
	e.str("w")
	e.uvarint(1)
	e.str("i")
	e.uvarint(2)
	e.uvarint(0)       // misses
	e.float(0)         // density
	e.uvarint(0)       // cycles
	e.uvarint(0)       // instrs
	e.uvarint(1 << 24) // block count with no backing data
	if _, err := DecodeProfile(e.b); err == nil {
		t.Fatal("giant unbacked block count decoded without error")
	}
}

// TestDuplicateSiteRejected: a profile stream naming one site twice fails
// to decode. WriteProfile never writes one, and merging the two would give a
// profile whose encoding differs from the stream's, so FuzzDecode's fixed
// point could not hold.
func TestDuplicateSiteRejected(t *testing.T) {
	var e writer
	e.uvarint(profileMagic)
	e.uvarint(version)
	e.str("w")
	e.uvarint(1)
	e.str("i")
	e.uvarint(2)
	e.uvarint(2) // misses
	e.float(0)   // density
	e.uvarint(0) // cycles
	e.uvarint(0) // instrs
	e.uvarint(1) // one block, never executed, with no edges
	e.uvarint(0)
	e.float(0)
	e.uvarint(0)
	e.uvarint(2) // two sites, both b0+0, each one miss without samples
	for i := 0; i < 2; i++ {
		e.varint(0)
		e.varint(0)
		e.uvarint(1)
		e.uvarint(0)
	}
	if _, err := DecodeProfile(e.b); err == nil || !strings.Contains(err.Error(), "appears twice") {
		t.Fatalf("duplicate site: err = %v", err)
	}
}

// FuzzDecode feeds arbitrary bytes to every decoder, re-encodes every
// profile DecodeProfile accepts, and checks the plan summary read against
// DecodePlan (decodeAll). Run continuously
// with `go test -fuzz=FuzzDecode ./internal/traceio`; `make check` runs a
// short smoke pass.
func FuzzDecode(f *testing.F) {
	for _, enc := range encodings(f) {
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0xd9, 0xea, 0xd4, 0xca, 0x04}) // program magic, no version
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeAll(t, data)
	})
}
