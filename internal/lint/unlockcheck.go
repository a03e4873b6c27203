package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// UnlockCheck reports unbalanced lock usage inside one function:
//
//   - a return path that still holds a lock other paths release
//     (the classic early-return-under-error leak),
//   - a second Unlock of a lock this path already released,
//   - a lock call whose error (or TryLock's bool) result is discarded
//     as a bare statement.
//
// The walk is branch-cloning but intraprocedural: helpers that
// deliberately return holding a lock (and never unlock it themselves)
// are not flagged — the leak signal is the *inconsistency* between
// paths within one function.
var UnlockCheck = &Analyzer{
	Name: "unlockcheck",
	Doc:  "report return paths holding locks other paths release, double unlocks, and ignored lock-call results",
	Run:  runUnlockCheck,
}

type ulState struct {
	held     map[string]int
	released map[string]bool // definitely released earlier on this path
	deferred map[string]int  // unlocks registered via defer
	failed   map[string]bool // this path saw the acquire FAIL (err != nil / try false)
}

func newUlState() *ulState {
	return &ulState{
		held: map[string]int{}, released: map[string]bool{},
		deferred: map[string]int{}, failed: map[string]bool{},
	}
}

func (s *ulState) clone() *ulState {
	c := newUlState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k, v := range s.released {
		c.released[k] = v
	}
	for k, v := range s.deferred {
		c.deferred[k] = v
	}
	for k, v := range s.failed {
		c.failed[k] = v
	}
	return c
}

// merge folds a branch outcome back into the fall-through state:
// held/deferred to the minimum (may not have executed), released to the
// conjunction (only definite facts survive).
func (s *ulState) merge(o *ulState) {
	for k, v := range s.held {
		if ov := o.held[k]; ov < v {
			s.held[k] = ov
		}
	}
	for k := range o.held {
		if _, ok := s.held[k]; !ok {
			s.held[k] = 0
		}
	}
	for k := range s.released {
		if !o.released[k] {
			delete(s.released, k)
		}
	}
	for k, v := range s.deferred {
		if ov := o.deferred[k]; ov < v {
			s.deferred[k] = ov
		}
	}
	for k := range o.failed {
		s.failed[k] = true
	}
}

// ulFunc is unlockcheck's client of the walk: one must-hold state per
// path, cloned at each arm and merged where arms fall through.
type ulFunc struct {
	*flow
	pass   *Pass
	st     *ulState
	frames []ulFrame
	// lockPos is the first acquisition site per key; unlocks counts
	// releases anywhere in the function (the inconsistency signal).
	lockPos map[string]token.Pos
	unlocks map[string]int
	returns []ulReturn
	descs   map[string]string
}

// ulFrame is one open branch: the state before it, and the merge of
// the arms that fall through (nil while none has).
type ulFrame struct {
	pre, merged *ulState
}

type ulReturn struct {
	pos      token.Pos
	held     map[string]token.Pos // key -> acquisition site
	failed   map[string]bool      // keys whose acquire failed on this path
	released map[string]bool      // keys definitely released on this path
}

// waitFailKey marks a path where a Cond wait returned an error: the
// wait's mutex state is contract-dependent (recovery unwinds without
// the lock), so such returns are neither leaks nor leak evidence.
const waitFailKey = "*"

func runUnlockCheck(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body != nil {
					checkUnlockFunc(pass, x.Body)
				}
				return false
			}
			return true
		})
	}
	return nil
}

// checkUnlockFunc analyzes one function body; nested literals are
// analyzed independently (their lock discipline is their own).
func checkUnlockFunc(pass *Pass, body *ast.BlockStmt) {
	uf := &ulFunc{
		pass:    pass,
		st:      newUlState(),
		lockPos: map[string]token.Pos{},
		unlocks: map[string]int{},
		descs:   map[string]string{},
	}
	uf.flow = newFlow(pass.Pkg, false, uf)
	uf.walk(body)
	// A held return is a leak only against evidence of a path that does
	// release: some other return that definitely released the lock and
	// is not an acquire-failure branch. A function whose every
	// successful return holds the lock (Cond.Wait's re-acquire
	// contract, lock helpers) is consistent, not leaky; a return that
	// never touched the lock proves nothing.
	for _, r := range uf.returns {
		if r.failed[waitFailKey] {
			continue
		}
		for key, acq := range r.held {
			if uf.unlocks[key] == 0 {
				continue
			}
			releasing := false
			for _, o := range uf.returns {
				_, holds := o.held[key]
				if !holds && o.released[key] && !o.failed[key] && !o.failed[waitFailKey] {
					releasing = true
					break
				}
			}
			if releasing {
				uf.pass.Reportf(r.pos, "returns while still holding %s (acquired at line %d; other paths unlock it)",
					uf.descs[key], uf.pass.Pkg.Fset.Position(acq).Line)
			}
		}
	}
}

// lockID is the instance-sensitive identity used for balance tracking:
// unlike lockorder's graph nodes, x.mu and y.mu are different things.
func (uf *ulFunc) lockID(recv ast.Expr) (string, bool) {
	ref, ok := uf.res.resolve(recv)
	switch {
	case ok && ref.key != nil:
		id := ref.key.key
		if ref.key.inst != "" {
			id += "|" + ref.key.inst
		}
		if idx, isIdx := ast.Unparen(recv).(*ast.IndexExpr); isIdx {
			// Distinct indices are distinct locks for balance tracking:
			// shard[a].Unlock / shard[b].Unlock is not a double unlock.
			id += "|" + exprString(idx.Index)
		}
		uf.descs[id] = ref.key.desc
		return id, true
	case ok && ref.obj != nil:
		id := "sym:" + ref.obj.Name()
		uf.descs[id] = ref.obj.Name()
		return id, true
	}
	// Unresolved or channel-payload receiver: balance checking only needs
	// consistency within the function, so the receiver's text will do.
	s := exprString(recv)
	if s == "?" {
		return "", false
	}
	uf.descs["expr:"+s] = s
	return "expr:" + s, true
}

func (uf *ulFunc) lockCall(call *ast.CallExpr, method string, recv ast.Expr, mode int) {
	if mode == callBare {
		if sig, ok := uf.pass.Pkg.Info.Types[call.Fun].Type.(*types.Signature); ok && sig.Results().Len() > 0 {
			kind := "error"
			if acquireTry[method] {
				kind = "result"
			}
			uf.pass.Reportf(call.Pos(), "%s of %s.%s ignored: the lock state is unknown on failure",
				kind, exprString(recv), method)
		}
	}
	key, ok := uf.lockID(recv)
	if !ok {
		return
	}
	switch {
	case mode == callDefer:
		if releaseMethods[method] {
			uf.unlocks[key]++
			uf.st.deferred[key]++
		}
	case acquireBlocking[method], acquireTry[method]:
		if _, seen := uf.lockPos[key]; !seen {
			uf.lockPos[key] = call.Pos()
		}
		uf.st.held[key]++
		delete(uf.st.released, key)
	case releaseMethods[method]:
		uf.unlocks[key]++
		if uf.st.held[key] > 0 {
			uf.st.held[key]--
		} else if uf.st.released[key] {
			uf.pass.Reportf(call.Pos(), "%s released twice on this path (double unlock)", uf.descs[key])
		}
		uf.st.released[key] = true
	}
}

// call counts the releases inside a deferred closure, written in place
// (`defer func(){ mu.Unlock() }()`) or bound to a local release helper
// (`defer release()`), as deferred releases.
func (uf *ulFunc) call(call *ast.CallExpr, mode int) {
	lit := uf.callee(call.Fun).lit
	if mode != callDefer || lit == nil {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.CallExpr); ok {
			if method, recv, ok := classifyLockCall(uf.pass.Pkg, inner); ok && releaseMethods[method] {
				if key, ok := uf.lockID(recv); ok {
					uf.unlocks[key]++
					uf.st.deferred[key]++
				}
			}
		}
		return true
	})
}

func (uf *ulFunc) chanOp(int, ast.Expr, ast.Expr, token.Pos, bool) {}

func (uf *ulFunc) funcLit(lit *ast.FuncLit) { checkUnlockFunc(uf.pass, lit.Body) }

func (uf *ulFunc) ret(pos token.Pos) {
	r := ulReturn{pos: pos, held: map[string]token.Pos{}, failed: map[string]bool{}, released: map[string]bool{}}
	for key, n := range uf.st.held {
		if n-uf.st.deferred[key] > 0 {
			r.held[key] = uf.lockPos[key]
		}
	}
	for k := range uf.st.failed {
		r.failed[k] = true
	}
	for k, v := range uf.st.released {
		if v {
			r.released[k] = true
		}
	}
	uf.returns = append(uf.returns, r)
}

func (uf *ulFunc) fork() { uf.frames = append(uf.frames, ulFrame{pre: uf.st.clone()}) }

// arm starts from the state before the branch. On the arm where a
// tested lock call failed, an acquire does not hold, a release did not
// release, and a Cond wait left its mutex contract-dependent.
func (uf *ulFunc) arm(fail *lockOutcome) {
	uf.st = uf.frames[len(uf.frames)-1].pre.clone()
	if fail == nil {
		return
	}
	if condWaitMethods[fail.method] {
		uf.st.failed[waitFailKey] = true
		return
	}
	key, ok := uf.lockID(fail.recv)
	if !ok {
		return
	}
	if releaseMethods[fail.method] {
		delete(uf.st.released, key)
		return
	}
	if uf.st.held[key] > 0 {
		uf.st.held[key]--
	}
	uf.st.failed[key] = true
}

func (uf *ulFunc) endArm(live bool) {
	f := &uf.frames[len(uf.frames)-1]
	switch {
	case !live:
	case f.merged == nil:
		f.merged = uf.st
	default:
		f.merged.merge(uf.st)
	}
}

// join continues with the merge of the arms that fall through; when
// none does, the code after is reached only by a jump, and the state
// before the branch stands in.
func (uf *ulFunc) join() {
	f := uf.frames[len(uf.frames)-1]
	uf.frames = uf.frames[:len(uf.frames)-1]
	uf.st = f.pre
	if f.merged != nil {
		uf.st = f.merged
	}
}
