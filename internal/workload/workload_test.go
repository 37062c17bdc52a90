package workload

import (
	"reflect"
	"strings"
	"testing"

	"ispy/internal/isa"
)

func TestAllPresetsGenerateValid(t *testing.T) {
	for _, name := range AppNames {
		w := Preset(name)
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := w.Prog.Validate(); err != nil {
			t.Errorf("%s program: %v", name, err)
		}
	}
}

func TestPresetFootprintsExceedL1I(t *testing.T) {
	const l1i = 32 << 10
	for _, name := range AppNames {
		w := Preset(name)
		if w.Prog.TextSize < 2*l1i {
			t.Errorf("%s text %d B is too small to stress a %d B L1I", name, w.Prog.TextSize, l1i)
		}
	}
}

func TestPresetDeterminism(t *testing.T) {
	a := Preset("wordpress")
	b := Preset("wordpress")
	if len(a.Prog.Blocks) != len(b.Prog.Blocks) || a.Prog.TextSize != b.Prog.TextSize {
		t.Fatal("preset generation not deterministic")
	}
	for i := range a.Prog.Blocks {
		if a.Prog.Blocks[i].Addr != b.Prog.Blocks[i].Addr {
			t.Fatalf("block %d addresses differ", i)
		}
	}
}

func TestUnknownPresetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown preset should panic")
		}
	}()
	Preset("netflix")
}

func TestGenerateDefaults(t *testing.T) {
	w := Generate(Params{Name: "mini", Seed: 1, NumTypes: 4})
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.NumTypes != 4 || len(w.HandlerEntry) != 4 {
		t.Error("type count not honored")
	}
}

func TestExecutorDeterminism(t *testing.T) {
	w := Preset("tomcat")
	in := DefaultInput(w)
	a, b := NewExecutor(w, in), NewExecutor(w, in)
	for i := 0; i < 50000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("executors with identical input diverged")
		}
	}
}

func TestExecutorVisitsCorrectHandler(t *testing.T) {
	w := Preset("tomcat")
	ex := NewExecutor(w, DefaultInput(w))
	entrySet := make(map[int]int, len(w.HandlerEntry))
	for ty, e := range w.HandlerEntry {
		entrySet[e] = ty
	}
	checked := 0
	for i := 0; i < 300000 && checked < 100; i++ {
		want := ex.ReqType()
		b := ex.Next()
		if ty, ok := entrySet[b]; ok {
			if ty != want {
				t.Fatalf("request type %d entered handler of type %d", want, ty)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no handler entries observed")
	}
}

func TestExecutorStackBounded(t *testing.T) {
	w := Preset("wordpress")
	ex := NewExecutor(w, DefaultInput(w))
	maxDepth := 0
	for i := 0; i < 200000; i++ {
		ex.Next()
		if d := ex.Depth(); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth == 0 {
		t.Error("no calls observed")
	}
	if maxDepth > 64 {
		t.Errorf("call depth %d looks unbounded", maxDepth)
	}
}

func TestRoundRobinTypes(t *testing.T) {
	w := Preset("verilator")
	ex := NewExecutor(w, DefaultInput(w))
	var seq []int
	prevReqs := uint64(0)
	for i := 0; i < 3_000_000 && len(seq) < 12; i++ {
		ty := ex.ReqType()
		ex.Next()
		if ex.Requests != prevReqs {
			prevReqs = ex.Requests
			_ = ty
			seq = append(seq, ex.ReqType())
		}
	}
	if len(seq) < 12 {
		t.Fatalf("only %d phase transitions observed", len(seq))
	}
	for i := 1; i < len(seq); i++ {
		if seq[i] != (seq[i-1]+1)%w.NumTypes {
			t.Fatalf("round-robin violated: %v", seq)
		}
	}
}

func TestTypeDistributionFollowsSkew(t *testing.T) {
	w := Preset("wordpress")
	ex := NewExecutor(w, DefaultInput(w))
	for i := 0; i < 3_000_000 && ex.Requests < 2000; i++ {
		ex.Next()
	}
	if ex.TypeCounts[0] <= ex.TypeCounts[w.NumTypes-1] {
		t.Errorf("Zipf head (%d) not more popular than tail (%d)",
			ex.TypeCounts[0], ex.TypeCounts[w.NumTypes-1])
	}
}

func TestLastWasTakenMix(t *testing.T) {
	w := Preset("tomcat")
	ex := NewExecutor(w, DefaultInput(w))
	taken, total := 0, 100000
	for i := 0; i < total; i++ {
		ex.Next()
		if ex.LastWasTaken() {
			taken++
		}
	}
	frac := float64(taken) / float64(total)
	if frac < 0.1 || frac > 0.9 {
		t.Errorf("taken-transfer fraction = %v, expected a mixed stream", frac)
	}
}

func TestDriftedInputs(t *testing.T) {
	w := Preset("drupal")
	ins := DriftedInputs(w, 5)
	if len(ins) != 5 {
		t.Fatalf("got %d inputs", len(ins))
	}
	if ins[0].Name != "profiled" {
		t.Error("first input must be the profiled one")
	}
	for i, in := range ins[1:] {
		if in.TypeWeights == nil {
			t.Errorf("drifted input %d has no weights", i+1)
		}
	}
	// Reversed input must invert the popularity order.
	rev := ins[4]
	if rev.TypeWeights[0] >= rev.TypeWeights[len(rev.TypeWeights)-1] {
		t.Error("reversed input does not invert ranks")
	}
	// Extended request works.
	more := DriftedInputs(w, 8)
	if len(more) != 8 {
		t.Errorf("extended inputs = %d", len(more))
	}
	// The parameters alone, defaults included, give the same inputs.
	for _, p := range []Params{w.Params, {Name: "mini", Seed: 1, NumTypes: 4}} {
		if got, want := DriftedInputsFor(p, 8), DriftedInputs(Generate(p), 8); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: DriftedInputsFor = %+v, want %+v", p.Name, got, want)
		}
	}
}

func TestInputWeightsMismatchPanics(t *testing.T) {
	w := Preset("tomcat")
	defer func() {
		if recover() == nil {
			t.Error("mismatched weight vector should panic")
		}
	}()
	NewExecutor(w, Input{Seed: 1, TypeWeights: []float64{1, 2}})
}

func TestDriftChangesTypeMix(t *testing.T) {
	w := Preset("drupal")
	ins := DriftedInputs(w, 5)
	run := func(in Input) []uint64 {
		ex := NewExecutor(w, in)
		for i := 0; i < 1_500_000 && ex.Requests < 800; i++ {
			ex.Next()
		}
		return ex.TypeCounts
	}
	base := run(ins[0])
	rot := run(ins[1])
	// The rotated input must shift popularity away from type 0.
	if rot[0] >= base[0] {
		t.Errorf("rotation did not demote type 0: base=%d rotated=%d", base[0], rot[0])
	}
}

func TestEngineStructure(t *testing.T) {
	w := Preset("wordpress")
	if w.Params.EngineSlots == 0 {
		t.Skip("preset has no engine")
	}
	if len(w.IndirectTargets) != w.Params.EngineSlots {
		t.Fatalf("indirect-call blocks = %d, want %d", len(w.IndirectTargets), w.Params.EngineSlots)
	}
	for bid, tbl := range w.IndirectTargets {
		if w.Flow[bid].Kind != FlowIndirectCall {
			t.Errorf("block %d with a table is not an indirect call", bid)
		}
		if len(tbl) != w.NumTypes {
			t.Errorf("table for block %d has %d entries", bid, len(tbl))
		}
		for ty, entry := range tbl {
			fn := w.Prog.Funcs[w.Prog.Blocks[entry].Func].Name
			if !strings.HasPrefix(fn, "fragment_t") {
				t.Errorf("type %d fragment entry lands in %q", ty, fn)
			}
		}
	}
}

func TestFunctionsAreLineAligned(t *testing.T) {
	w := Preset("kafka")
	for _, f := range w.Prog.Funcs {
		entry := w.Prog.Blocks[f.Blocks[0]]
		if entry.Addr%isa.LineSize != 0 {
			t.Errorf("func %s entry %#x not line-aligned", f.Name, entry.Addr)
		}
	}
}

func TestGroupDivDecoding(t *testing.T) {
	w := Preset("tomcat")
	groups, leaves := 0, 0
	for i := range w.Flow {
		f := &w.Flow[i]
		if f.Kind != FlowDispatch {
			continue
		}
		if f.GroupDiv() > 0 {
			groups++
		} else {
			leaves++
		}
	}
	if groups == 0 || leaves == 0 {
		t.Errorf("dispatch tree malformed: %d groups, %d leaves", groups, leaves)
	}
}

func TestBlockInstructionMix(t *testing.T) {
	w := Preset("cassandra")
	var loads, terms, total int
	for i := range w.Prog.Blocks {
		for _, in := range w.Prog.Blocks[i].Instrs {
			total++
			switch {
			case in.Kind == isa.KindLoad:
				loads++
			case in.Kind.IsTerminator():
				terms++
			}
		}
	}
	if f := float64(loads) / float64(total); f < 0.10 || f > 0.40 {
		t.Errorf("load fraction = %v, outside realistic band", f)
	}
	if terms == 0 {
		t.Error("no terminators generated")
	}
}
