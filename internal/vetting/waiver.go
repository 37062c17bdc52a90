// Waivers: `//ispy:<directive> <reason>` comments that suppress one pass at
// one site. A waiver applies to the line it sits on and the line directly
// below it (so it can trail the flagged statement or sit on its own line
// above). Waivers are first-class gate state: every one is counted and
// listable (`ispy-vet -waivers`), a reason is mandatory, and a waiver that
// suppresses nothing is reported as stale so annotations cannot outlive the
// code they excused.
package vetting

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
	"sync"
)

// Directives, by pass they waive.
const (
	DirectiveOrdered = "ordered" // determinism: map range is order-free
	DirectiveErrOK   = "errok"   // errors: dropped error is intentional
	DirectiveAlloc   = "alloc"   // hotpath: deliberate warmup/setup allocation
	DirectiveDTaint  = "dtaint"  // dtaint: order-dependence at this sink is benign
	DirectivePure    = "pure"    // purity: operational state at this sink is sanctioned
)

var directivePass = map[string]string{
	DirectiveOrdered: PassDeterminism,
	DirectiveErrOK:   PassErrors,
	DirectiveAlloc:   PassHotPath,
	DirectiveDTaint:  PassDTaint,
	DirectivePure:    PassPurity,
}

// Waiver is one parsed //ispy: directive.
type Waiver struct {
	Pos       token.Position
	Directive string
	Pass      string
	Reason    string
	Used      bool
}

type waiverSet struct {
	byLine     map[string]map[int]*Waiver // file → line → waiver
	all        []*Waiver
	bad        []Diagnostic
	suppressed []Diagnostic // findings a waiver silenced (for -json waived:true)
	// mu guards Used marking and the suppressed list: the passes consult
	// the set concurrently. Collection itself is single-threaded, so the
	// byLine index is immutable by the time any pass runs.
	mu sync.Mutex
}

func collectWaivers(pkgs []*Package) *waiverSet {
	ws := &waiverSet{byLine: make(map[string]map[int]*Waiver)}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					ws.add(p.Fset.Position(c.Pos()), c.Text)
				}
			}
		}
	}
	return ws
}

func (ws *waiverSet) add(pos token.Position, text string) {
	body, ok := strings.CutPrefix(text, "//ispy:")
	if !ok {
		return
	}
	// Tolerate a trailing test expectation on fixture lines.
	if i := strings.Index(body, "// want"); i >= 0 {
		body = body[:i]
	}
	fields := strings.Fields(body)
	if len(fields) == 0 {
		ws.bad = append(ws.bad, Diagnostic{Pos: pos, Pass: PassWaiver, Message: "empty //ispy: directive"})
		return
	}
	pass, known := directivePass[fields[0]]
	if !known {
		names := make([]string, 0, len(directivePass))
		for d := range directivePass {
			names = append(names, d)
		}
		sort.Strings(names)
		ws.bad = append(ws.bad, Diagnostic{Pos: pos, Pass: PassWaiver,
			Message: fmt.Sprintf("unknown directive //ispy:%s (known: %s)", fields[0], strings.Join(names, ", "))})
		return
	}
	if len(fields) == 1 {
		ws.bad = append(ws.bad, Diagnostic{Pos: pos, Pass: PassWaiver,
			Message: fmt.Sprintf("//ispy:%s needs a reason", fields[0])})
		return
	}
	w := &Waiver{
		Pos:       pos,
		Directive: fields[0],
		Pass:      pass,
		Reason:    strings.Join(fields[1:], " "),
	}
	lines := ws.byLine[pos.Filename]
	if lines == nil {
		lines = make(map[int]*Waiver)
		ws.byLine[pos.Filename] = lines
	}
	lines[pos.Line] = w
	ws.all = append(ws.all, w)
}

// lookup finds a waiver for pass at pos — on the same line, or on the line
// directly above — without locking; callers hold ws.mu.
func (ws *waiverSet) lookup(pass string, pos token.Position) *Waiver {
	lines := ws.byLine[pos.Filename]
	for _, ln := range []int{pos.Line, pos.Line - 1} {
		if w := lines[ln]; w != nil && w.Pass == pass {
			return w
		}
	}
	return nil
}

// hasWaiver peeks for a waiver without marking it used — for passes that
// need to know a site is annotated (e.g. a waived //ispy:ordered range is
// still a taint source) without claiming the waiver themselves.
func (ws *waiverSet) hasWaiver(pass string, pos token.Position) bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.lookup(pass, pos) != nil
}

// waive records use of a waiver covering d's pass and position: the finding
// is recorded as suppressed (so -json can report it with waived:true) and
// true is returned; otherwise the caller should emit it.
func (ws *waiverSet) waive(d Diagnostic) bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	w := ws.lookup(d.Pass, d.Pos)
	if w == nil {
		return false
	}
	w.Used = true
	ws.suppressed = append(ws.suppressed, d)
	return true
}

// diags returns malformed-directive and stale-waiver findings.
func (ws *waiverSet) diags() []Diagnostic {
	out := append([]Diagnostic(nil), ws.bad...)
	for _, w := range ws.all {
		if !w.Used {
			out = append(out, Diagnostic{Pos: w.Pos, Pass: PassWaiver, Advisory: true,
				Message: fmt.Sprintf("unused //ispy:%s waiver: nothing to waive on this line", w.Directive)})
		}
	}
	sort.Slice(ws.all, func(i, j int) bool {
		a, b := ws.all[i].Pos, ws.all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}
