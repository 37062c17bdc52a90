// The discarded-errors pass: in the packages that own durable state
// (traceio, artifacts, faults), an error silently dropped is an artifact
// silently corrupted. Two shapes are reported: a call statement whose
// (final) result is an error and is never bound, and an assignment that
// binds an error position to the blank identifier. Intentional best-effort
// drops — cleanup of a temp file already being abandoned, for instance —
// carry an `//ispy:errok <reason>` waiver so the intent is auditable.
package vetting

import (
	"fmt"
	"go/ast"
	"go/types"
)

func checkErrors(pkgs []*Package, cfg Config, ws *waiverSet) []Diagnostic {
	want := stringSet(cfg.ErrorPkgs)
	var diags []Diagnostic
	for _, p := range pkgs {
		if !want[p.Path] {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						diags = append(diags, p.droppedError(call, ws, "result of %s discarded; check it or waive with //ispy:errok <reason>")...)
					}
				case *ast.GoStmt:
					diags = append(diags, p.droppedError(n.Call, ws, "error from go %s is unrecoverable; restructure or waive with //ispy:errok <reason>")...)
				case *ast.DeferStmt:
					diags = append(diags, p.droppedError(n.Call, ws, "error from deferred %s discarded; check it in a closure or waive with //ispy:errok <reason>")...)
				case *ast.AssignStmt:
					diags = append(diags, p.blankError(n, ws)...)
				}
				return true
			})
		}
	}
	return diags
}

// droppedError reports call when it returns an error that the statement
// ignores.
func (p *Package) droppedError(call *ast.CallExpr, ws *waiverSet, format string) []Diagnostic {
	t := p.Info.TypeOf(call)
	if t == nil || !lastIsError(t) {
		return nil
	}
	pos := p.Fset.Position(call.Pos())
	d := Diagnostic{Pos: pos, Pass: PassErrors,
		Message: fmt.Sprintf(format, types.ExprString(call.Fun))}
	if ws.waive(d) {
		return nil
	}
	return []Diagnostic{d}
}

// blankError reports `_` bound to an error-typed position. The comma-ok
// idioms (map index, type assertion, channel receive) yield bool/value
// pairs, not errors, so they pass untouched.
func (p *Package) blankError(n *ast.AssignStmt, ws *waiverSet) []Diagnostic {
	var diags []Diagnostic
	for i, lhs := range n.Lhs {
		if !isBlank(lhs) {
			continue
		}
		var t types.Type
		switch {
		case len(n.Rhs) == len(n.Lhs):
			t = p.Info.TypeOf(n.Rhs[i])
		case len(n.Rhs) == 1:
			if tup, ok := p.Info.TypeOf(n.Rhs[0]).(*types.Tuple); ok && i < tup.Len() {
				t = tup.At(i).Type()
			}
		}
		if t == nil || !isErrorType(t) {
			continue
		}
		pos := p.Fset.Position(lhs.Pos())
		d := Diagnostic{Pos: pos, Pass: PassErrors,
			Message: "error assigned to blank identifier; check it or waive with //ispy:errok <reason>"}
		if ws.waive(d) {
			continue
		}
		diags = append(diags, d)
	}
	return diags
}

// lastIsError reports whether the call's (possibly tuple) result ends in an
// error.
func lastIsError(t types.Type) bool {
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		return isErrorType(tup.At(tup.Len() - 1).Type())
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
