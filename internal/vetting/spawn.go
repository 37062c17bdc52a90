// The pool-task inventory the concurrency pass's pool-ctx check reads: every
// task submitted to an experiments Pool/Group via its Go method, resolved to
// a body where possible — a literal's own body, the declaration of a named
// function, or the literal a function-valued variable is bound to.
package vetting

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolTask is one pool submission.
type poolTask struct {
	pos token.Position
	// fn is the task's resolved signature and body (nil when the task is a
	// function value the analysis cannot resolve); fnPkg is the package
	// they live in, which differs from the submitting package for a named
	// function declared in another one.
	fn    *ast.FuncType
	body  *ast.BlockStmt
	fnPkg *Package
	desc  string
}

// poolTasks lists every pool submission in the module.
func poolTasks(a *Analysis) []*poolTask {
	var tasks []*poolTask
	for _, p := range a.pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && isPoolGo(p, call) {
					tasks = append(tasks, newPoolTask(a, p, call))
				}
				return true
			})
		}
	}
	return tasks
}

// newPoolTask resolves the submission call's function-typed argument.
func newPoolTask(a *Analysis, p *Package, call *ast.CallExpr) *poolTask {
	t := &poolTask{pos: p.Fset.Position(call.Pos()), desc: "pool task"}
	for _, arg := range call.Args {
		if typ := p.Info.TypeOf(arg); typ != nil {
			if _, ok := typ.Underlying().(*types.Signature); ok {
				t.resolve(a, p, arg)
				break
			}
		}
	}
	return t
}

// resolve resolves the task function expression to a body: a literal's
// own, a named function's declaration, or the literal a function-valued
// variable is bound to in the submitting package.
func (t *poolTask) resolve(a *Analysis, p *Package, fun ast.Expr) {
	var obj types.Object
	switch fun := ast.Unparen(fun).(type) {
	case *ast.FuncLit:
		t.fn, t.body, t.fnPkg = fun.Type, fun.Body, p
		return
	case *ast.Ident:
		obj = p.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = p.Info.Uses[fun.Sel]
	}
	switch obj := obj.(type) {
	case *types.Func:
		if n := a.graph.NodeOf(obj); n != nil && !n.External() {
			t.fn, t.body, t.fnPkg = n.Decl.Type, n.Body(), n.Pkg
			t.desc += " " + obj.Name()
		}
	case *types.Var:
		if lit := initializerLit(p, obj); lit != nil {
			t.fn, t.body, t.fnPkg = lit.Type, lit.Body, p
			t.desc += " " + obj.Name()
		}
	}
}

// initializerLit finds the function literal a variable is bound to (via :=,
// =, or a var declaration) within the same package.
func initializerLit(p *Package, v *types.Var) *ast.FuncLit {
	var found *ast.FuncLit
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if i >= len(n.Rhs) {
						break
					}
					if id, ok := lhs.(*ast.Ident); ok && (p.Info.Defs[id] == v || p.Info.Uses[id] == v) {
						if lit, ok := ast.Unparen(n.Rhs[i]).(*ast.FuncLit); ok {
							found = lit
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i >= len(n.Values) {
						break
					}
					if p.Info.Defs[name] == v {
						if lit, ok := ast.Unparen(n.Values[i]).(*ast.FuncLit); ok {
							found = lit
						}
					}
				}
			}
			return found == nil
		})
		if found != nil {
			break
		}
	}
	return found
}
