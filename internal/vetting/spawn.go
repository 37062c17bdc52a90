// Spawn-site enumeration shared by the gshare, goleak and concurrency
// passes. A spawn site is a point where a new goroutine is created: a `go`
// statement, or a task submitted to an experiments Pool/Group via its Go
// method (which runs the task on a pooled goroutine). Each site resolves the
// launched function to a body where possible — a literal's own body, the
// declaration of a named function, or the literal a function-valued
// variable is bound to — and records the joins visible around it:
//
//   - a sync.WaitGroup the task Done()s whose Wait() the spawner (or, for a
//     WaitGroup held in a struct field, any method of the module) calls;
//   - a channel the task sends on or closes that the spawner receives from
//     directly (`<-ch`, `for range ch`) — a receive inside a select does NOT
//     count, because the select's other arm abandons the goroutine;
//   - a `<-ctx.Done()` receive inside the task itself (ctx-bounded);
//   - for pool tasks, a Wait() on the group, or the group escaping into a
//     call (a helper that waits on the caller's behalf).
package vetting

import (
	"go/ast"
	"go/token"
	"go/types"
)

// spawnSite is one goroutine-creation point.
type spawnSite struct {
	p     *Package
	owner *Node // enclosing function
	pos   token.Position
	// call is the go'd call expression, or the pool .Go(...) call.
	call *ast.CallExpr
	pool bool
	// poolRecv is the group/pool receiver expression for pool submissions.
	poolRecv ast.Expr
	// body is the launched function's resolved body (nil when the task is a
	// function value the analysis cannot resolve).
	body *ast.BlockStmt
	// span is the whole resolved function (literal or declaration), so
	// parameters count as task-private when deciding what is captured.
	span ast.Node
	// bodyPkg is the package the body lives in (differs from p for a named
	// function declared in another package).
	bodyPkg *Package
	// loop is the innermost for/range statement enclosing the spawn within
	// owner, nil when the spawn is straight-line; loops is the full enclosing
	// chain, innermost first.
	loop  ast.Stmt
	loops []ast.Stmt
	desc  string

	joined  bool
	joinPos token.Position // position of the join in owner, when in owner
	joinHow string
}

// spawnAnalysis is the module-wide spawn inventory.
type spawnAnalysis struct {
	sites   []*spawnSite
	byOwner map[*Node][]*spawnSite
	// waitedFields are struct fields of type sync.WaitGroup on which some
	// module function calls Wait() — the cross-method pairing used by
	// pool-style types (spawn in one method, Wait in another).
	waitedFields map[*types.Var]bool
}

func buildSpawnAnalysis(a *Analysis) *spawnAnalysis {
	sa := &spawnAnalysis{
		byOwner:      make(map[*Node][]*spawnSite),
		waitedFields: make(map[*types.Var]bool),
	}
	for _, p := range a.pkgs {
		for _, f := range p.Files {
			sa.collectFile(a, p, f)
		}
	}
	for _, s := range sa.sites {
		sa.resolveJoin(s)
	}
	return sa
}

// collectFile walks one file with a node stack, attributing every spawn to
// its enclosing function and recording module-wide WaitGroup-field Waits.
func (sa *spawnAnalysis) collectFile(a *Analysis, p *Package, f *ast.File) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			if owner := a.graph.enclosingFunc(p, stack); owner != nil {
				sa.addGo(a, p, owner, n, enclosingLoops(stack))
			}
		case *ast.CallExpr:
			if _, ok := lockCall(p, n, "Wait"); ok {
				if f := waitGroupField(p, n); f != nil {
					sa.waitedFields[f] = true
				}
			}
			if isPoolGo(p, n) {
				if owner := a.graph.enclosingFunc(p, stack); owner != nil {
					sa.addPool(a, p, owner, n, enclosingLoops(stack))
				}
			}
		}
		stack = append(stack, n)
		return true
	})
}

// enclosingLoops returns the for/range statements on the walk stack up to
// the enclosing function, innermost first.
func enclosingLoops(stack []ast.Node) []ast.Stmt {
	var loops []ast.Stmt
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return loops
		case *ast.ForStmt:
			loops = append(loops, n)
		case *ast.RangeStmt:
			loops = append(loops, n)
		}
	}
	return loops
}

func (sa *spawnAnalysis) addGo(a *Analysis, p *Package, owner *Node, g *ast.GoStmt, loops []ast.Stmt) {
	s := &spawnSite{
		p: p, owner: owner, pos: p.Fset.Position(g.Pos()),
		call: g.Call, loops: loops, desc: "goroutine",
	}
	if len(loops) > 0 {
		s.loop = loops[0]
	}
	sa.resolveTask(a, s, g.Call.Fun)
	sa.add(s)
}

func (sa *spawnAnalysis) addPool(a *Analysis, p *Package, owner *Node, call *ast.CallExpr, loops []ast.Stmt) {
	sel := call.Fun.(*ast.SelectorExpr) // isPoolGo guarantees the shape
	s := &spawnSite{
		p: p, owner: owner, pos: p.Fset.Position(call.Pos()),
		call: call, pool: true, poolRecv: sel.X, loops: loops, desc: "pool task",
	}
	if len(loops) > 0 {
		s.loop = loops[0]
	}
	for _, arg := range call.Args {
		if t := p.Info.TypeOf(arg); t != nil {
			if _, ok := t.Underlying().(*types.Signature); ok {
				sa.resolveTask(a, s, arg)
				break
			}
		}
	}
	sa.add(s)
}

// resolveTask resolves the launched function expression to a body: a
// literal's own, a named function's declaration, or the literal a
// function-valued variable is bound to in the spawning package.
func (sa *spawnAnalysis) resolveTask(a *Analysis, s *spawnSite, fun ast.Expr) {
	var obj types.Object
	switch fun := ast.Unparen(fun).(type) {
	case *ast.FuncLit:
		s.body, s.span, s.bodyPkg = fun.Body, fun, s.p
		return
	case *ast.Ident:
		obj = s.p.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = s.p.Info.Uses[fun.Sel]
	}
	switch obj := obj.(type) {
	case *types.Func:
		if n := a.graph.NodeOf(obj); n != nil && !n.External() {
			s.body, s.span, s.bodyPkg = n.Body(), n.Decl, n.Pkg
			s.desc += " " + obj.Name()
		}
	case *types.Var:
		if lit := initializerLit(s.p, obj); lit != nil {
			s.body, s.span, s.bodyPkg = lit.Body, lit, s.p
			s.desc += " " + obj.Name()
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

func (sa *spawnAnalysis) add(s *spawnSite) {
	sa.sites = append(sa.sites, s)
	sa.byOwner[s.owner] = append(sa.byOwner[s.owner], s)
}

// waitGroupField resolves call (already matched as a sync Wait) to the
// struct field its receiver selects, when the receiver is a field of type
// sync.WaitGroup (e.g. g.wg.Wait()).
func waitGroupField(p *Package, call *ast.CallExpr) *types.Var {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s := p.Info.Selections[inner]; s != nil && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok && isWaitGroup(v.Type()) {
			return v
		}
	}
	return nil
}

func isWaitGroup(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// resolveJoin decides whether a spawn site has a join path and records how.
func (sa *spawnAnalysis) resolveJoin(s *spawnSite) {
	// Ctx-bounded task: the goroutine itself exits when a context is done.
	if s.body != nil && hasDoneReceive(s.bodyPkg, s.body) {
		s.joined, s.joinHow = true, "bounded by <-ctx.Done()"
		return
	}
	ownerBody := s.owner.Body()
	if s.pool {
		// The group may be captured from an enclosing scope (a spawn helper
		// closure); the Wait lives wherever the group variable does, so walk
		// the lexical chain.
		for n := s.owner; n != nil; n = n.Parent {
			if pos, ok := sa.groupJoin(s, n.Body()); ok {
				s.joined, s.joinPos, s.joinHow = true, pos, "group waited"
				return
			}
		}
		return
	}
	if s.body == nil {
		return // unresolvable task: no join can be proven
	}
	// WaitGroup pairing: the task Done()s a WaitGroup the spawner Waits on
	// (or, for a field, any module function Waits on).
	for _, done := range doneCalls(s.bodyPkg, s.body) {
		if pos, ok := waitInBody(s.p, ownerBody, done.recvText); ok {
			s.joined, s.joinPos, s.joinHow = true, pos, "WaitGroup.Wait in spawner"
			return
		}
		if done.field != nil && sa.waitedFields[done.field] {
			s.joined, s.joinHow = true, "WaitGroup field waited elsewhere in the module"
			return
		}
	}
	// Channel hand-off: the task sends on / closes a channel the spawner
	// awaits outside any select.
	for _, ch := range sentChannels(s.bodyPkg, s.body) {
		if pos, ok := awaitedOutsideSelect(s.p, ownerBody, ch, s.body); ok {
			s.joined, s.joinPos, s.joinHow = true, pos, "channel awaited by spawner"
			return
		}
	}
}

// hasDoneReceive reports a `<-x.Done()` receive (bare or in a select case)
// anywhere in body.
func hasDoneReceive(p *Package, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		u, ok := n.(*ast.UnaryExpr)
		if !ok || u.Op != token.ARROW {
			return !found
		}
		if call, ok := ast.Unparen(u.X).(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				found = true
			}
		}
		return !found
	})
	return found
}

// doneCall is one task-side WaitGroup.Done().
type doneCall struct {
	recvText string
	field    *types.Var // non-nil when the receiver is a struct field
}

func doneCalls(p *Package, body ast.Node) []doneCall {
	var out []doneCall
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, ok := lockCall(p, call, "Done"); ok {
			out = append(out, doneCall{recvText: recv, field: waitGroupField(p, call)})
		}
		return true
	})
	return out
}

// waitInBody finds a recv.Wait() with the same receiver text in body.
func waitInBody(p *Package, body ast.Node, recvText string) (token.Position, bool) {
	var pos token.Position
	found := false
	if body == nil {
		return pos, false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, ok := lockCall(p, call, "Wait"); ok && recv == recvText {
			pos, found = p.Fset.Position(call.Pos()), true
		}
		return !found
	})
	return pos, found
}

// sentChannels returns the source text of every channel the body sends on
// or closes.
func sentChannels(p *Package, body ast.Node) []string {
	var out []string
	seen := make(map[string]bool)
	add := func(e ast.Expr) {
		t := types.ExprString(e)
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			add(n.Chan)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 1 {
				if b, ok := p.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					add(n.Args[0])
				}
			}
		}
		return true
	})
	return out
}

// awaitedOutsideSelect reports a direct receive (`<-ch` outside any select)
// or a `for range ch` over a channel with the given source text in body,
// skipping the spawned task's own subtree.
func awaitedOutsideSelect(p *Package, body ast.Node, chText string, skip ast.Node) (token.Position, bool) {
	var pos token.Position
	found := false
	if body == nil {
		return pos, false
	}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if found || n == skip {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && types.ExprString(n.X) == chText && !inSelect(stack) {
				pos, found = p.Fset.Position(n.Pos()), true
			}
		case *ast.RangeStmt:
			if t := p.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok && types.ExprString(n.X) == chText {
					pos, found = p.Fset.Position(n.Pos()), true
				}
			}
		}
		stack = append(stack, n)
		return !found
	})
	return pos, found
}

func inSelect(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		case *ast.SelectStmt:
			return true
		}
	}
	return false
}

// groupJoin finds a join for a pool submission: recv.Wait() in the spawner,
// or the group value escaping as an argument into a call (a wait helper).
func (sa *spawnAnalysis) groupJoin(s *spawnSite, body ast.Node) (token.Position, bool) {
	if body == nil {
		return token.Position{}, false
	}
	recvText := types.ExprString(s.poolRecv)
	var pos token.Position
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" &&
			types.ExprString(sel.X) == recvText {
			pos, found = s.p.Fset.Position(call.Pos()), true
			return false
		}
		for _, arg := range call.Args {
			if types.ExprString(arg) == recvText {
				pos, found = s.p.Fset.Position(call.Pos()), true
				return false
			}
		}
		return true
	})
	return pos, found
}
