package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// How a call runs relative to the path being walked.
const (
	callNow   = iota // evaluated here, its result used
	callBare         // an expression statement: its result is discarded
	callDefer        // runs at function exit
	callGo           // runs on a new goroutine
)

// fnVal is what a function-valued expression names in the walked body:
// a literal, a static function or method, an interface method (expanded
// through the class-hierarchy index at instantiation), or a
// function-typed variable a caller binds. The zero value is unknown.
type fnVal struct {
	lit   *ast.FuncLit
	fn    *types.Func
	iface *types.Func
	param types.Object
}

// lockOutcome is a lock call whose result (error or TryLock's bool) a
// later condition may test.
type lockOutcome struct {
	method string
	recv   ast.Expr
}

// outcomeKey names where an outcome is stored: a variable, or an element
// or field reached from one (errs[i], r.err).
type outcomeKey struct {
	base types.Object
	path string
}

// A flowClient is an analysis riding the walk. The walker calls it for
// every operation in evaluation order — arguments, then the receiver,
// then the call — and brackets every branch with fork, one arm/endArm
// pair per arm, and join. Each arm starts from the state at the fork;
// the client's join rule says what continues after it.
type flowClient interface {
	// lockCall is a method call on a tracked lock (classifyLockCall).
	lockCall(call *ast.CallExpr, method string, recv ast.Expr, mode int)
	// call is any other call.
	call(call *ast.CallExpr, mode int)
	// chanOp is a send (val set) or receive on ch.
	chanOp(kind int, ch, val ast.Expr, pos token.Pos, nonBlock bool)
	// funcLit is a literal the walk met; its body is a function of its own.
	funcLit(lit *ast.FuncLit)
	// ret is a return, explicit or at the closing brace.
	ret(pos token.Pos)
	fork()
	// arm starts an arm; fail is the lock call that failed on it, if the
	// branch condition tests one.
	arm(fail *lockOutcome)
	// endArm ends an arm; live means it falls through past the branch.
	endArm(live bool)
	join()
}

// flow walks one function body for lock analysis. It is the only code in
// the package that traverses a body statement by statement, and owns the
// local bindings: lock aliases (the resolver), function values, and the
// variables holding a lock call's outcome.
type flow struct {
	pkg      *Package
	c        flowClient
	res      *lockResolver
	fns      map[types.Object]fnVal
	outcomes map[outcomeKey]lockOutcome
	// live is false once the path cannot fall through to the next
	// statement (return, panic, branch statement, or a branch none of
	// whose arms falls through).
	live bool
	// nonBlock is set while walking the comm op of a select with a
	// default clause: it cannot block.
	nonBlock bool
}

func newFlow(pkg *Package, ctx bool, c flowClient) *flow {
	return &flow{
		pkg: pkg, c: c, res: newLockResolver(pkg, ctx),
		fns: map[types.Object]fnVal{}, outcomes: map[outcomeKey]lockOutcome{},
	}
}

func (w *flow) walk(body *ast.BlockStmt) {
	w.live = true
	w.stmt(body)
	if w.live {
		w.c.ret(body.Rbrace)
	}
}

func (w *flow) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *flow) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		w.stmts(x.List)
	case *ast.ExprStmt:
		call, ok := ast.Unparen(x.X).(*ast.CallExpr)
		if !ok {
			w.expr(x.X)
			return
		}
		w.operands(call)
		w.callOp(call, callBare)
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
			w.live = false
		}
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			w.expr(r)
		}
		for _, lhs := range x.Lhs {
			if k, ok := w.outcomeKey(lhs); ok {
				delete(w.outcomes, k)
			}
		}
		if len(x.Lhs) == len(x.Rhs) {
			for i, lhs := range x.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					w.bind(w.obj(id), x.Rhs[i])
				}
			}
		}
		w.noteOutcome(x)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
					if len(vs.Names) == len(vs.Values) {
						for i, name := range vs.Names {
							w.bind(w.pkg.Info.Defs[name], vs.Values[i])
						}
					}
				}
			}
		}
	case *ast.GoStmt:
		// The function value and arguments evaluate here; the call runs
		// on the new goroutine.
		w.operands(x.Call)
		w.callOp(x.Call, callGo)
	case *ast.DeferStmt:
		w.operands(x.Call)
		w.callOp(x.Call, callDefer)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			w.expr(r)
		}
		if w.live {
			w.c.ret(x.Pos())
		}
		w.live = false
	case *ast.BranchStmt:
		w.live = false
	case *ast.IfStmt:
		w.stmt(x.Init)
		w.expr(x.Cond)
		var els func()
		if x.Else != nil {
			els = func() { w.stmt(x.Else) }
		}
		w.branch(x.Cond, func() { w.stmt(x.Body) }, els)
	case *ast.ForStmt:
		// The body is walked once, as an arm beside the zero-iteration path.
		w.stmt(x.Init)
		w.expr(x.Cond)
		w.branch(x.Cond, func() { w.stmt(x.Body); w.stmt(x.Post) }, nil)
		if x.Cond == nil && !hasLoopBreak(x.Body) {
			w.live = false
		}
	case *ast.RangeStmt:
		w.expr(x.X)
		if tv, ok := w.pkg.Info.Types[x.X]; ok && tv.Type != nil && isChanType(tv.Type) {
			w.c.chanOp(loRecv, x.X, nil, x.Pos(), false)
			if ref, ok := w.res.resolve(x.X); ok && ref.key != nil {
				if id, ok := x.Key.(*ast.Ident); ok {
					if obj := w.pkg.Info.Defs[id]; obj != nil {
						w.res.noteRecv(obj, ref.key.key)
					}
				}
			}
		}
		w.branch(nil, func() { w.stmt(x.Body) }, nil)
	case *ast.SwitchStmt:
		w.stmt(x.Init)
		w.expr(x.Tag)
		w.branch(nil, w.clauses(x.Body)...)
	case *ast.TypeSwitchStmt:
		w.stmt(x.Init)
		w.stmt(x.Assign)
		w.branch(nil, w.clauses(x.Body)...)
	case *ast.SelectStmt:
		w.branch(nil, w.clauses(x.Body)...)
	case *ast.LabeledStmt:
		// A label is a jump target: reachable whatever came before it.
		w.live = true
		w.stmt(x.Stmt)
	case *ast.SendStmt:
		w.expr(x.Chan)
		w.expr(x.Value)
		w.c.chanOp(loSend, x.Chan, x.Value, x.Pos(), w.nonBlock)
	case *ast.IncDecStmt:
		w.expr(x.X)
	}
}

// branch walks each arm from the state before the branch; a nil arm is
// the empty path (no else, no default, zero loop iterations). When cond
// tests a lock call's outcome, the arm where it failed (arms[0] runs
// when cond holds) starts without the lock. Code after the branch is
// live if any arm falls through.
func (w *flow) branch(cond ast.Expr, arms ...func()) {
	fail, failArm := w.condFailure(cond)
	pre := w.live
	live := false
	w.c.fork()
	for i, arm := range arms {
		w.live = pre
		if i == failArm {
			w.c.arm(&fail)
		} else {
			w.c.arm(nil)
		}
		if arm != nil {
			arm()
		}
		w.c.endArm(w.live)
		live = live || w.live
	}
	w.c.join()
	w.live = live
}

// clauses turns the clauses of a switch, type switch or select into
// arms. A switch without a default gains the empty arm; a select always
// runs one clause. The comm ops of a select with a default cannot block,
// and a clause's trailing unlabeled break leaves it as falling off its
// end does.
func (w *flow) clauses(body *ast.BlockStmt) []func() {
	var arms []func()
	hasDefault, isSelect := false, false
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			hasDefault = hasDefault || cc.List == nil
		case *ast.CommClause:
			hasDefault, isSelect = hasDefault || cc.Comm == nil, true
		}
	}
	nonBlock := isSelect && hasDefault
	for _, c := range body.List {
		var comm ast.Stmt
		var list []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			list = cc.Body
		case *ast.CommClause:
			comm, list = cc.Comm, cc.Body
		}
		if n := len(list); n > 0 {
			if b, ok := list[n-1].(*ast.BranchStmt); ok && b.Tok == token.BREAK && b.Label == nil {
				list = list[:n-1]
			}
		}
		arms = append(arms, func() {
			w.nonBlock = nonBlock
			w.stmt(comm)
			w.nonBlock = false
			w.stmts(list)
		})
	}
	if !hasDefault && !isSelect {
		arms = append(arms, nil)
	}
	return arms
}

// expr walks an expression in evaluation order. Func literals are
// handed to the client, never inlined into the current path.
func (w *flow) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.c.funcLit(x)
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.expr(x.X)
				w.c.chanOp(loRecv, x.X, nil, x.Pos(), w.nonBlock)
				return false
			}
		case *ast.CallExpr:
			w.operands(x)
			w.callOp(x, callNow)
			return false
		}
		return true
	})
}

// operands walks what a call evaluates before it runs: the arguments,
// then the receiver or function value.
func (w *flow) operands(call *ast.CallExpr) {
	for _, a := range call.Args {
		w.expr(a)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.expr(sel.X)
	} else {
		w.expr(call.Fun)
	}
}

func (w *flow) callOp(call *ast.CallExpr, mode int) {
	if method, recv, ok := classifyLockCall(w.pkg, call); ok {
		// A lock call spawned as a goroutine changes nothing on this path.
		if mode != callGo {
			w.c.lockCall(call, method, recv, mode)
		}
		return
	}
	w.c.call(call, mode)
}

// callee resolves a function-valued expression through the body's
// function-value bindings.
func (w *flow) callee(fun ast.Expr) fnVal {
	switch f := ast.Unparen(fun).(type) {
	case *ast.FuncLit:
		return fnVal{lit: f}
	case *ast.Ident:
		switch obj := w.pkg.Info.Uses[f].(type) {
		case *types.Func:
			return fnVal{fn: obj}
		case *types.Var:
			if v, ok := w.fns[obj]; ok {
				return v
			}
			return fnVal{param: obj}
		}
	case *ast.SelectorExpr:
		// Method values: s.Flush names the concrete method, store.Get
		// through an interface dispatches.
		if s, ok := w.pkg.Info.Selections[f]; ok && s.Kind() == types.MethodVal {
			m := s.Obj().(*types.Func)
			if _, isIface := types.Unalias(s.Recv()).Underlying().(*types.Interface); isIface {
				return fnVal{iface: m}
			}
			return fnVal{fn: m}
		}
		if fn, ok := w.pkg.Info.Uses[f.Sel].(*types.Func); ok {
			return fnVal{fn: fn}
		}
	}
	return fnVal{}
}

// bind records `obj := rhs`: a function value, or a lock alias for the
// resolver.
func (w *flow) bind(obj types.Object, rhs ast.Expr) {
	if obj == nil {
		return
	}
	delete(w.fns, obj)
	if v := w.callee(rhs); v.lit != nil || v.fn != nil || v.iface != nil {
		w.fns[obj] = v
		return
	}
	w.res.note(obj, rhs)
}

// noteOutcome records `err := mu.LockT(t)`, `ok := mu.TryLock()`,
// `err := mu.UnlockT(t)` and `err := c.WaitCtx(ctx)`: the outcome is the
// last result, and a later condition on it splits the arms.
func (w *flow) noteOutcome(x *ast.AssignStmt) {
	if len(x.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(x.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	method, recv, ok := classifyLockCall(w.pkg, call)
	if !ok || !(acquireBlocking[method] || acquireTry[method] || releaseMethods[method] || condWaitMethods[method]) {
		return
	}
	if k, ok := w.outcomeKey(x.Lhs[len(x.Lhs)-1]); ok {
		w.outcomes[k] = lockOutcome{method: method, recv: recv}
	}
}

// condFailure recognizes a condition that tests a lock call's outcome
// and returns the call and the index of the arm where it failed (0: the
// arm taken when cond holds), or -1. Shapes: `err != nil`, `err == nil`,
// `ok`, `!ok`, `mu.TryLock()`, `!mu.TryLock()`.
func (w *flow) condFailure(cond ast.Expr) (lockOutcome, int) {
	switch x := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			if o, arm := w.condFailure(x.X); arm >= 0 {
				return o, 1 - arm
			}
		}
	case *ast.BinaryExpr:
		if x.Op != token.NEQ && x.Op != token.EQL {
			break
		}
		v, nilSide := x.X, x.Y
		if isNilIdent(v) {
			v, nilSide = x.Y, x.X
		}
		if k, ok := w.outcomeKey(v); ok && isNilIdent(nilSide) {
			if o, found := w.outcomes[k]; found {
				if x.Op == token.NEQ {
					return o, 0
				}
				return o, 1
			}
		}
	case *ast.Ident:
		// A try-acquire's bool: true means acquired.
		if k, ok := w.outcomeKey(x); ok {
			if o, found := w.outcomes[k]; found {
				return o, 1
			}
		}
	case *ast.CallExpr:
		if method, recv, ok := classifyLockCall(w.pkg, x); ok && acquireTry[method] {
			return lockOutcome{method: method, recv: recv}, 1
		}
	}
	return lockOutcome{}, -1
}

func (w *flow) outcomeKey(e ast.Expr) (outcomeKey, bool) {
	base := ast.Unparen(e)
	for {
		switch x := base.(type) {
		case *ast.IndexExpr:
			base = ast.Unparen(x.X)
		case *ast.SelectorExpr:
			base = ast.Unparen(x.X)
		case *ast.Ident:
			obj := w.obj(x)
			return outcomeKey{base: obj, path: exprString(e)}, obj != nil && x.Name != "_"
		default:
			return outcomeKey{}, false
		}
	}
}

func (w *flow) obj(id *ast.Ident) types.Object {
	if obj := w.pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return w.pkg.Info.Uses[id]
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// hasLoopBreak reports whether body can break out of the loop enclosing
// it: an unlabeled break at loop level, or (conservatively) any labeled
// break or goto anywhere inside.
func hasLoopBreak(body ast.Stmt) bool {
	found := false
	var walk func(s ast.Stmt, inner bool)
	walk = func(s ast.Stmt, inner bool) {
		if found || s == nil {
			return
		}
		switch x := s.(type) {
		case *ast.BranchStmt:
			switch x.Tok {
			case token.BREAK:
				if !inner || x.Label != nil {
					found = true
				}
			case token.GOTO:
				found = true
			}
		case *ast.BlockStmt:
			for _, s := range x.List {
				walk(s, inner)
			}
		case *ast.IfStmt:
			walk(x.Init, inner)
			walk(x.Body, inner)
			walk(x.Else, inner)
		case *ast.LabeledStmt:
			walk(x.Stmt, inner)
		case *ast.ForStmt:
			walk(x.Body, true)
		case *ast.RangeStmt:
			walk(x.Body, true)
		case *ast.SwitchStmt:
			walk(x.Body, true)
		case *ast.TypeSwitchStmt:
			walk(x.Body, true)
		case *ast.SelectStmt:
			walk(x.Body, true)
		case *ast.CaseClause:
			for _, s := range x.Body {
				walk(s, inner)
			}
		case *ast.CommClause:
			for _, s := range x.Body {
				walk(s, inner)
			}
		}
	}
	walk(body, false)
	return found
}
