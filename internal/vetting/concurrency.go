// The concurrency-hygiene pass, module-wide: locks held across blocking
// points. A linear scan of each statement list tracks mu.Lock()/mu.Unlock()
// pairs (keyed by receiver expression) and reports WaitGroup.Wait calls and
// channel operations made while a lock is held — the standing deadlock
// shape the fault-tolerant run engine must never reintroduce.
//
// Lock values copied by assignment, argument or range are go vet's
// copylocks check, which `make check` already runs.
package vetting

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

func checkConcurrency(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch n := n.(type) {
				case *ast.FuncDecl:
					body = n.Body
				case *ast.FuncLit:
					body = n.Body
				}
				if body != nil {
					diags = append(diags, p.scanHeld(body.List, map[string]token.Position{})...)
				}
				return true
			})
		}
	}
	return diags
}

// scanHeld walks one statement list linearly. held maps a lock receiver
// expression (by source text) to the position it was acquired. Nested
// blocks are scanned with a copy of the held set: control flow inside them
// may release and reacquire, so only locks provably held at entry count.
func (p *Package) scanHeld(stmts []ast.Stmt, held map[string]token.Position) []Diagnostic {
	var diags []Diagnostic
	report := func(pos token.Pos, what string) {
		for lock := range held {
			diags = append(diags, Diagnostic{Pos: p.Fset.Position(pos), Pass: PassConcurrency,
				Message: fmt.Sprintf("%s while holding %s.Lock(); release before blocking", what, lock)})
		}
	}
	checkExpr := func(e ast.Expr) {
		if len(held) == 0 || e == nil {
			return
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					report(n.Pos(), "channel receive")
				}
			case *ast.CallExpr:
				if recv, ok := lockCall(p, n, "Wait"); ok && !isCondType(p, n) {
					report(n.Pos(), "call to "+recv+".Wait()")
				}
			}
			return true
		})
	}
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if recv, ok := lockCall(p, call, "Lock"); ok {
					held[recv] = p.Fset.Position(call.Pos())
					continue
				}
				if recv, ok := lockCall(p, call, "RLock"); ok {
					held[recv] = p.Fset.Position(call.Pos())
					continue
				}
				if recv, ok := lockCall(p, call, "Unlock"); ok {
					delete(held, recv)
					continue
				}
				if recv, ok := lockCall(p, call, "RUnlock"); ok {
					delete(held, recv)
					continue
				}
			}
			checkExpr(s.X)
		case *ast.SendStmt:
			if len(held) > 0 {
				report(s.Pos(), "channel send")
			}
		case *ast.DeferStmt:
			// defer mu.Unlock() releases at return, not here: the lock
			// stays held for the scan, which is the point.
		case *ast.AssignStmt:
			for _, r := range s.Rhs {
				checkExpr(r)
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				checkExpr(r)
			}
		case *ast.IfStmt:
			checkExpr(s.Cond)
			diags = append(diags, p.scanHeld(s.Body.List, copyHeld(held))...)
			if els, ok := s.Else.(*ast.BlockStmt); ok {
				diags = append(diags, p.scanHeld(els.List, copyHeld(held))...)
			}
		case *ast.ForStmt:
			checkExpr(s.Cond)
			diags = append(diags, p.scanHeld(s.Body.List, copyHeld(held))...)
		case *ast.RangeStmt:
			diags = append(diags, p.scanHeld(s.Body.List, copyHeld(held))...)
		case *ast.BlockStmt:
			diags = append(diags, p.scanHeld(s.List, copyHeld(held))...)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					diags = append(diags, p.scanHeld(cc.Body, copyHeld(held))...)
				}
			}
		case *ast.SelectStmt:
			if len(held) > 0 {
				report(s.Pos(), "select over channels")
			}
		}
	}
	return diags
}

func copyHeld(held map[string]token.Position) map[string]token.Position {
	out := make(map[string]token.Position, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// lockCall matches a call of the form recv.<method>() where recv's type
// comes from package sync (directly or embedded), returning the receiver's
// source text.
func lockCall(p *Package, call *ast.CallExpr, method string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method || len(call.Args) != 0 {
		return "", false
	}
	s := p.Info.Selections[sel]
	if s == nil {
		return "", false
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false
	}
	return types.ExprString(sel.X), true
}

// isCondType filters sync.Cond.Wait, which must be called with the lock
// held — the opposite discipline.
func isCondType(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := p.Info.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Cond"
}
