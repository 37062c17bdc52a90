package vetting

import (
	"go/token"
	"path/filepath"
	"regexp"
	"testing"
)

// fixtureConfig mirrors DefaultConfig's shape against the fixture module
// under testdata/src.
var fixtureConfig = Config{
	DeterministicPkgs: []string{"fixture/det", "fixture/taint"},
	ErrorPkgs:         []string{"fixture/errs"},
	StatsRules: []StatsRule{
		{PkgPath: "fixture/statsdef", Type: "Stats"},
	},
	HotPathRoots: []string{"fixture/hot.Run", "fixture/hot.Src.NextN"},
	PureExternal: []string{"math"},
	SinkPkgs:     []string{"fixture/taintsink"},
	ImpureCalls:  []string{"time.Now"},
	ImpureTypes:  []string{"fixture/purecnt.Counters"},
	PuritySinkTypes: []KeyRule{
		{PkgPath: "fixture/purity", Type: "Resp"},
		{PkgPath: "fixture/purity", Type: "Stat"},
	},
	PurityRenderers:  []string{"fixture/purity.Render"},
	PuritySanctioned: []string{"fixture/purity.Statusz"},
}

var fixturePkgs = []string{
	"fixture/det",
	"fixture/statsdef",
	"fixture/statsreader",
	"fixture/internal/experiments",
	"fixture/conc",
	"fixture/errs",
	"fixture/hot",
	"fixture/taint",
	"fixture/taintsink",
	"fixture/purecnt",
	"fixture/purity",
}

func loadFixtures(t *testing.T) []*Package {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader()
	l.AddRoot("fixture", root)
	pkgs := make([]*Package, 0, len(fixturePkgs))
	for _, path := range fixturePkgs {
		p, err := l.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// expectation is one `// want `+"`regex`"+“ comment in a fixture file.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("want `([^`]*)`")

func collectExpectations(t *testing.T, pkgs []*Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", p.Fset.Position(c.Pos()), m[1], err)
					}
					pos := p.Fset.Position(c.Pos())
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// TestFixtures runs every pass over the fixture packages and checks the
// findings against the inline `// want` expectations, both ways: every
// diagnostic must be expected and every expectation must fire.
func TestFixtures(t *testing.T) {
	pkgs := loadFixtures(t)
	res := Run(pkgs, fixtureConfig)
	wants := collectExpectations(t, pkgs)

	for _, d := range res.Diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// TestWaiverAccounting pins the waiver ledger for the fixtures: eight
// well-formed waivers (malformed directives are diagnostics, not waivers)
// — det's two //ispy:ordered and errs' //ispy:errok, hot's declaration and
// site //ispy:alloc pair, taint's //ispy:ordered, taint's //ispy:dtaint,
// and purity's //ispy:pure on the diagnostic timestamp — of which exactly
// one (the one on a clean line) is unused.
func TestWaiverAccounting(t *testing.T) {
	res := Run(loadFixtures(t), fixtureConfig)
	if got := len(res.Waivers); got != 8 {
		for _, w := range res.Waivers {
			t.Logf("waiver: %s:%d //ispy:%s %s", w.Pos.Filename, w.Pos.Line, w.Directive, w.Reason)
		}
		t.Fatalf("got %d waivers, want 8", got)
	}
	unused := 0
	for _, w := range res.Waivers {
		if !w.Used {
			unused++
		}
	}
	if unused != 1 {
		t.Fatalf("got %d unused waivers, want 1 (the clean-line fixture)", unused)
	}
}

// TestDiagnosticFormat pins the gate's canonical output shape.
func TestDiagnosticFormat(t *testing.T) {
	d := Diagnostic{
		Pos:     token.Position{Filename: "a/b.go", Line: 7, Column: 3},
		Pass:    PassDeterminism,
		Message: "boom",
	}
	if got, want := d.String(), "a/b.go:7: determinism: boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestModuleIsClean is the analyzer's own acceptance gate: the repository
// it ships in must vet clean under the default configuration. This is the
// same check `make check` runs via cmd/ispy-vet.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	modRoot, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader()
	pkgs, err := l.LoadModule(modRoot)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(pkgs, DefaultConfig())
	for _, d := range res.Diags {
		t.Errorf("module not vet-clean: %s", d)
	}
	if len(res.Waivers) == 0 {
		t.Error("expected the module's waivers to be visible to the analyzer")
	}
}
