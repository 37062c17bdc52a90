// The stats-exhaustiveness pass: every exported field of sim.Stats must be
// read somewhere outside package sim. The golden oracle compares Stats
// structs wholesale, but the artifact serializer and report renderers pick
// fields by name — a counter added to Stats and forgotten everywhere else
// would ship values nobody ever checks or persists. The pass walks every
// selector expression in the module, resolves it through go/types'
// Selections map to the exact *types.Var (pointer identity holds because
// all packages share one loader), and reports fields never selected outside
// the defining package. Reads through embedded struct fields count: the
// selection path is unrolled so `stats.L1I.Hits` marks L1I as read.
package vetting

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

func checkStats(pkgs []*Package, cfg Config) []Diagnostic {
	var diags []Diagnostic
	for _, rule := range cfg.StatsRules {
		diags = append(diags, statsRule(pkgs, rule)...)
	}
	return diags
}

func statsRule(pkgs []*Package, rule StatsRule) []Diagnostic {
	home := findPackage(pkgs, rule.PkgPath)
	if home == nil {
		return nil
	}
	obj := home.Types.Scope().Lookup(rule.Type)
	if obj == nil {
		return []Diagnostic{{Pos: token.Position{Filename: rule.PkgPath}, Pass: PassStats,
			Message: fmt.Sprintf("stats rule names %s.%s but the type does not exist", rule.PkgPath, rule.Type)}}
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return []Diagnostic{{Pos: home.Fset.Position(obj.Pos()), Pass: PassStats,
			Message: fmt.Sprintf("stats rule names %s.%s but it is not a struct", rule.PkgPath, rule.Type)}}
	}

	fields := make(map[*types.Var]bool) // field → seen outside home package
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Exported() {
			fields[f] = false
		}
	}

	for _, p := range pkgs {
		if p.Path == rule.PkgPath {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s := p.Info.Selections[sel]
				if s == nil || s.Kind() != types.FieldVal {
					return true
				}
				// Unroll the selection path so a read through an embedded
				// field marks every struct field on the way.
				t := s.Recv()
				for _, idx := range s.Index() {
					stru, ok := derefStruct(t)
					if !ok {
						break
					}
					fld := stru.Field(idx)
					if _, tracked := fields[fld]; tracked {
						fields[fld] = true
					}
					t = fld.Type()
				}
				return true
			})
		}
	}

	var diags []Diagnostic
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if seen, tracked := fields[f]; tracked && !seen {
			diags = append(diags, Diagnostic{Pos: home.Fset.Position(f.Pos()), Pass: PassStats,
				Message: fmt.Sprintf("exported field %s.%s is never read outside %s; new counters must reach the serializer or a report",
					rule.Type, f.Name(), rule.PkgPath)})
		}
	}
	return diags
}

func derefStruct(t types.Type) (*types.Struct, bool) {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

func findPackage(pkgs []*Package, path string) *Package {
	for _, p := range pkgs {
		if p.Path == path {
			return p
		}
	}
	return nil
}
