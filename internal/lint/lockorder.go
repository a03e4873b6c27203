package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder is the headline analyzer: a whole-program static lock graph
// whose nodes are lock identities (allocation sites, fields, globals)
// and whose edges mean "acquires B while A may be held on the path to
// B", computed by replaying each function's summary path by path over a
// bounded call-graph closure. Every arm of a branch starts from the held
// set before the branch, an arm that returns, panics or jumps away adds
// nothing to the code after it, the code after continues with the union
// of the arms that fall through, and an arm where a tested try-lock (or
// a lock call's error) reports failure starts without that lock; a
// caller continues with the union of the callee's returns. Loop bodies
// are replayed once and deferred calls run at function exit, whichever
// arm registered them. Interface method calls fan out through a
// class-hierarchy call graph, locks carried over channels resolve
// through a send-site payload table, and RWMutex read/write modes refine
// cycle feasibility (a reader waiting on a reader never blocks). Every
// cycle is a lock-order inversion candidate; candidates that fail the
// predict-style soundness guards (same-goroutine-only reachability,
// common dominating lock, reader-reader compatibility) are suppressed.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "report lock-order inversions (potential deadlocks) across the whole program",
	RunProgram: func(pp *ProgramPass) error {
		for _, c := range pp.analysis().LockOrder.Cycles {
			pp.Report(c.Diagnostic())
		}
		return nil
	},
}

// DefaultLockOrderOptions are the options the registered LockOrder and
// ChanCycle analyzers run with (the multichecker's -call-depth / -ctx
// flags land here; the zero value means all defaults).
var DefaultLockOrderOptions LockOrderOptions

// LockOrderOptions bound the closure.
type LockOrderOptions struct {
	MaxCallDepth int // call-graph closure depth (default 3)
	// NoCtx disables the one-level allocation-site context on field
	// identities (the -ctx=0 escape hatch): all instances of a struct
	// type merge back into one abstract node.
	NoCtx bool
}

const (
	maxCycleLen = 3 // longest reported lock cycle
	maxOccs     = 8 // occurrences kept per edge
)

// Result is the whole-program outcome of one instantiation: the
// lockorder and chancycle analyzers and -emit all read it.
type Result struct {
	LockOrder LockOrderResult
	ChanCycle ChanCycleResult
}

// Analyze summarizes and instantiates the whole program once and
// enumerates both the lock-order cycles and the mixed channel/lock
// cycles of the resulting graph.
func Analyze(prog *Program, opts LockOrderOptions) *Result {
	st := buildLoState(prog, opts)
	return &Result{LockOrder: *st.collectCycles(), ChanCycle: *st.chanCycles()}
}

// analysis is Analyze with DefaultLockOrderOptions, computed once per
// program and shared by the analyzers that report from it.
func (p *Program) analysis() *Result {
	if p.result == nil {
		p.result = Analyze(p, DefaultLockOrderOptions)
	}
	return p.result
}

// EmitFrame is one runtime-style pseudo-frame of a statically derived
// acquisition stack: Func matches what runtime.CallersFrames would
// report for the same source location, File is the base filename, so
// the emitted signature is comparable to live captures.
type EmitFrame struct {
	Func string
	File string
	Line int
}

// CycleEdge is one confirmed edge of a reported cycle: the holder of
// From acquires To. HoldStack is the call chain (innermost first) at
// which From was acquired — the stack predict and the live monitor
// archive per cycle edge — and AcqStack the chain of the To
// acquisition, used for reporting.
type CycleEdge struct {
	From, To  string
	HoldStack []EmitFrame
	AcqStack  []EmitFrame
	holdPos   token.Pos
	acqPos    token.Pos
}

// ConfirmedCycle is one lock-order inversion that survived the guards.
type ConfirmedCycle struct {
	Locks []string
	Edges []CycleEdge
	// AltRoots lists alternate entry chains (other roots whose
	// occurrences also realize this cycle), deduplicated and capped;
	// the same inversion reached from several entries is one report.
	AltRoots []string
	// witnessRoots are the roots of the combination that confirmed the
	// cycle (used to keep AltRoots disjoint from the witness).
	witnessRoots map[string]bool
}

// LockOrderResult is the whole-program outcome.
type LockOrderResult struct {
	Cycles []ConfirmedCycle
	// Candidates counts raw cycles before guard suppression;
	// SuppressedGuard / SuppressedSeq / SuppressedRW count the
	// casualties per guard (RW = every combination had a reader waiting
	// only on readers somewhere along the cycle).
	Candidates      int
	SuppressedGuard int
	SuppressedSeq   int
	SuppressedRW    int
	// SuppressedCtx counts widened self-loops dropped because every real
	// call path bound allocation-site contexts and none of the refined
	// instances produced the self-edge (two-instance disjoint locks).
	SuppressedCtx int
}

// Diagnostic renders the cycle as a finding anchored at the first
// edge's acquisition site, with the opposing chains as related notes.
func (c *ConfirmedCycle) Diagnostic() Diagnostic {
	var b strings.Builder
	fmt.Fprintf(&b, "lock-order inversion: %s -> %s", strings.Join(c.Locks, " -> "), c.Locks[0])
	for _, e := range c.Edges {
		fmt.Fprintf(&b, "; acquires %s at %s while holding %s (since %s)",
			e.To, frameSiteString(e.AcqStack), e.From, frameSiteString(e.HoldStack))
	}
	if len(c.AltRoots) > 0 {
		fmt.Fprintf(&b, "; also reachable via %s", strings.Join(c.AltRoots, ", "))
	}
	d := Diagnostic{Pos: c.Edges[0].acqPos, Message: b.String()}
	for _, e := range c.Edges {
		d.Related = append(d.Related, RelatedInfo{
			Pos:     e.holdPos,
			Message: fmt.Sprintf("%s acquired here, held while taking %s", e.From, e.To),
		})
	}
	return d
}

func frameSiteString(frames []EmitFrame) string {
	if len(frames) == 0 {
		return "?"
	}
	s := fmt.Sprintf("%s:%d", frames[0].File, frames[0].Line)
	if len(frames) > 1 {
		var via []string
		for _, f := range frames[1:] {
			via = append(via, shortFunc(f.Func))
		}
		s += " via " + strings.Join(via, " <- ")
	}
	return s
}

func shortFunc(fn string) string {
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		return fn[i+1:]
	}
	return fn
}

// --- function summaries ---------------------------------------------

const (
	loAcq = iota
	loRel
	loCall
	loSend
	loRecv
	loWgWait
	loWgDone
	// Path structure, written by the walk and replayed by instantiate:
	// a return, and a branch as fork, arms (each starting from the state
	// at the fork; live marks one that falls through) and join.
	loRet
	loFork
	loArm
	loLive
	loJoin
)

type loBind struct {
	idx   int
	lock  symRef
	fnKey string
	fnSym types.Object
}

type loEvent struct {
	kind      int
	lock      symRef // acq/rel lock, or chan/waitgroup identity
	read      bool
	try       bool
	isDefer   bool
	nonBlock  bool // chan op inside select-with-default: cannot block
	pos       token.Pos
	calleeKey string // call (static resolution)
	calleeSym types.Object
	// ifaceMethod marks a dynamic dispatch: resolved through the
	// class-hierarchy index at instantiation time.
	ifaceMethod *types.Func
	binds       []loBind
	isGo        bool
}

type funcSummary struct {
	key         string // pkg-path-qualified identity
	runtimeName string // what runtime.CallersFrames reports
	pkg         *Package
	params      []types.Object
	events      []loEvent
}

// funcKeyOf derives the summary key for a called *types.Func so caller
// and callee packages agree on identity without sharing objects.
func funcKeyOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path() + "." + funcSuffix(fn)
}

func funcSuffix(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			if n, ok := p.Elem().(*types.Named); ok {
				return "(*" + n.Obj().Name() + ")." + fn.Name()
			}
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// summarizer builds per-function summaries for one package.
type summarizer struct {
	pkg       *Package
	summaries map[string]*funcSummary
	ctx       bool
	// payloads is the program-wide send-site table: which concrete lock
	// identities travel over which channel (optionally per struct
	// field). Receive-side acquisitions bind through it.
	payloads map[payloadRef][]lockKey
}

func summarizePackage(pkg *Package, out map[string]*funcSummary, ctx bool, payloads map[payloadRef][]lockKey) {
	s := &summarizer{pkg: pkg, summaries: out, ctx: ctx, payloads: payloads}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			key := funcKeyOf(obj)
			rtName := runtimeQual(pkg) + "." + funcSuffix(obj)
			litN := 0
			s.summarize(key, rtName, fd.Type, fd.Body, &litN)
		}
	}
}

func runtimeQual(pkg *Package) string {
	if pkg.Name == "main" {
		return "main"
	}
	return pkg.PkgPath
}

// summarize walks one function body into its event list. litCounter
// numbers the func literals of the enclosing top-level decl so closure
// names line up with the runtime's funcN convention.
func (s *summarizer) summarize(key, rtName string, ftype *ast.FuncType, body *ast.BlockStmt, litCounter *int) {
	sum := &funcSummary{key: key, runtimeName: rtName, pkg: s.pkg}
	if ftype.Params != nil {
		for _, field := range ftype.Params.List {
			for _, name := range field.Names {
				sum.params = append(sum.params, s.pkg.Info.Defs[name])
			}
		}
	}
	s.summaries[key] = sum
	f := &loFunc{s: s, sum: sum, lits: litCounter, litKeys: map[*ast.FuncLit]string{}}
	f.flow = newFlow(s.pkg, s.ctx, f)
	f.walk(body)
}

// loFunc is the summarizer's client of the walk: it writes operations,
// returns and the branch structure into the function's event list, for
// instantiate to replay per path.
type loFunc struct {
	*flow
	s       *summarizer
	sum     *funcSummary
	lits    *int
	litKeys map[*ast.FuncLit]string // memo: a literal is summarized once
}

func (f *loFunc) emit(ev loEvent) { f.sum.events = append(f.sum.events, ev) }

func (f *loFunc) lockCall(call *ast.CallExpr, method string, recv ast.Expr, mode int) {
	if isCondType(f.pkg.Info.Types[recv].Type) {
		// Cond.Wait releases and reacquires L; neutral for ordering.
		return
	}
	ref, ok := f.res.resolve(recv)
	if !ok {
		return
	}
	ev := loEvent{lock: ref, read: readMethods[method], pos: call.Pos(), isDefer: mode == callDefer}
	switch {
	case acquireBlocking[method]:
		ev.kind = loAcq
	case acquireTry[method]:
		ev.kind, ev.try = loAcq, true
	case releaseMethods[method]:
		ev.kind = loRel
	default:
		return
	}
	f.emit(ev)
}

// call records a WaitGroup synchronization or a call event: its callee
// (static, through an interface, or a parameter bound by a caller) and
// the lock and function arguments the callee's parameters bind to.
func (f *loFunc) call(call *ast.CallExpr, mode int) {
	pkg := f.pkg
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal && isWaitGroupType(s.Recv()) {
			name := s.Obj().Name()
			if name == "Wait" || name == "Done" {
				if ref, resolved := f.res.resolve(sel.X); resolved {
					kind := loWgWait
					if name == "Done" {
						kind = loWgDone
					}
					f.emit(loEvent{kind: kind, lock: ref, pos: call.Pos(), nonBlock: f.nonBlock, isDefer: mode == callDefer})
				}
			}
			return
		}
	}
	fn := f.callee(call.Fun)
	ev := loEvent{kind: loCall, pos: call.Pos(), isGo: mode == callGo, isDefer: mode == callDefer,
		calleeKey: f.fnKey(fn), ifaceMethod: fn.iface, calleeSym: fn.param}
	if ev.calleeKey == "" && ev.ifaceMethod == nil && ev.calleeSym == nil {
		return // builtin, conversion, or a function value we cannot name
	}
	for i, arg := range call.Args {
		if key := f.fnKey(f.callee(arg)); key != "" {
			ev.binds = append(ev.binds, loBind{idx: i, fnKey: key})
		} else if ref, ok := f.res.resolve(arg); ok {
			ev.binds = append(ev.binds, loBind{idx: i, lock: ref})
		}
	}
	f.emit(ev)
}

// fnKey is the summary key of a literal or static function, "" otherwise.
func (f *loFunc) fnKey(v fnVal) string {
	switch {
	case v.lit != nil:
		return f.litKey(v.lit)
	case v.fn != nil:
		return funcKeyOf(v.fn)
	}
	return ""
}

// chanOp records a channel operation; a send also harvests the payload
// table: lock-typed values (directly or as composite-literal fields)
// sent on a resolvable channel become recv-side bindable identities.
func (f *loFunc) chanOp(kind int, ch, val ast.Expr, pos token.Pos, nonBlock bool) {
	ref, ok := f.res.resolve(ch)
	if !ok {
		return
	}
	if val != nil && ref.key != nil {
		f.notePayload(ref.key.key, val)
	}
	f.emit(loEvent{kind: kind, lock: ref, pos: pos, nonBlock: nonBlock})
}

func (f *loFunc) notePayload(chKey string, val ast.Expr) {
	val = ast.Unparen(val)
	if un, ok := val.(*ast.UnaryExpr); ok && un.Op == token.AND {
		val = ast.Unparen(un.X)
	}
	if lit, ok := val.(*ast.CompositeLit); ok {
		for _, elt := range lit.Elts {
			kv, ok := elt.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			field, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if _, isLock := isLockType(f.pkg.Info.Types[kv.Value].Type); !isLock {
				continue
			}
			if ref, ok := f.res.resolve(kv.Value); ok && ref.key != nil {
				f.addPayload(payloadRef{chanKey: chKey, field: field.Name}, *ref.key)
			}
		}
		return
	}
	if _, isLock := isLockType(f.pkg.Info.Types[val].Type); !isLock {
		return
	}
	if ref, ok := f.res.resolve(val); ok && ref.key != nil {
		f.addPayload(payloadRef{chanKey: chKey}, *ref.key)
	}
}

func (f *loFunc) addPayload(pr payloadRef, k lockKey) {
	for _, e := range f.s.payloads[pr] {
		if e.key == k.key {
			return
		}
	}
	f.s.payloads[pr] = append(f.s.payloads[pr], k)
}

func (f *loFunc) funcLit(lit *ast.FuncLit) { f.litKey(lit) }

// litKey summarizes a func literal (once) and returns its key.
func (f *loFunc) litKey(lit *ast.FuncLit) string {
	if key, ok := f.litKeys[lit]; ok {
		return key
	}
	*f.lits++
	key := fmt.Sprintf("%s.func%d", f.sum.key, *f.lits)
	rtName := fmt.Sprintf("%s.func%d", f.sum.runtimeName, *f.lits)
	f.litKeys[lit] = key
	f.s.summarize(key, rtName, lit.Type, lit.Body, f.lits)
	return key
}

func (f *loFunc) ret(pos token.Pos) { f.emit(loEvent{kind: loRet, pos: pos}) }
func (f *loFunc) fork()             { f.emit(loEvent{kind: loFork}) }
func (f *loFunc) join()             { f.emit(loEvent{kind: loJoin}) }

// arm starts an arm; where a tested acquire failed, the arm begins by
// dropping the lock the acquire event took.
func (f *loFunc) arm(fail *lockOutcome) {
	f.emit(loEvent{kind: loArm})
	if fail != nil && (acquireBlocking[fail.method] || acquireTry[fail.method]) {
		if ref, ok := f.res.resolve(fail.recv); ok && !isCondType(f.pkg.Info.Types[fail.recv].Type) {
			f.emit(loEvent{kind: loRel, lock: ref, read: readMethods[fail.method], pos: fail.recv.Pos()})
		}
	}
}

func (f *loFunc) endArm(live bool) {
	if live {
		f.emit(loEvent{kind: loLive})
	}
}

// --- instantiation: bounded call-graph closure -----------------------

type frameSite struct {
	fn  *funcSummary
	pos token.Pos
}

type siteChain []frameSite // innermost first

func (c siteChain) frames(fset *token.FileSet) []EmitFrame {
	out := make([]EmitFrame, len(c))
	for i, f := range c {
		p := fset.Position(f.pos)
		out[i] = EmitFrame{Func: f.fn.runtimeName, File: shortFile(p.Filename), Line: p.Line}
	}
	return out
}

type heldLock struct {
	key  lockKey
	read bool
	site siteChain
}

type occurrence struct {
	holdSite siteChain
	acqSite  siteChain
	guards   []string
	root     string // "go:<pos>", or "fn:<key>"
	fromInst string
	toInst   string
	holdRead bool // the held lock is in read mode
	acqRead  bool // the acquisition is in read mode
	// widened: both endpoints are type-keyed fallbacks of refinable
	// field references whose base had no allocation context here.
	widened bool
}

type loEdge struct {
	from, to lockKey
	occs     []occurrence
}

type envVal struct {
	locks []lockKey
	fn    string
	// site is an allocation-site context for a struct parameter: field
	// identities resolved against this binding refine to per-instance
	// nodes instead of the type-keyed fallback.
	site string
}

// maxPayloadFanout caps how many distinct send-site identities one
// payload reference expands to; larger sets widen to the first few
// (deterministic: insertion order per send-site walk order).
const maxPayloadFanout = 4

// maxChanOps bounds the wait-for op log across all entries.
const maxChanOps = 4096

type loState struct {
	maxDepth  int // call-graph closure depth
	fset      *token.FileSet
	summaries map[string]*funcSummary
	cha       *chaIndex
	payloads  map[payloadRef][]lockKey
	edges     map[[2]string]*loEdge
	// The reachability graph for the sequential-only guard; edges
	// discovered both statically and through env-resolved instantiation
	// land here.
	seqEdges  map[string][]string
	goTargets map[string]bool
	hasCaller map[string]bool
	seqOnly   map[string]bool
	// chanOps collects blocking channel / WaitGroup operations with
	// their held-set and acquisition-log contexts for chancycle.
	chanOps []chanOp
	opSeen  map[string]bool
}

// chanOp is one channel/WaitGroup operation observed during
// instantiation, with enough context to build the wait-for graph: held
// is the lock set at the op (what the blocked goroutine pins), before
// is the acquisition log of the whole flow (what must be acquired to
// reach — and therefore to unblock — the counterpart).
type chanOp struct {
	kind     int // loSend, loRecv, loWgWait, loWgDone
	ch       lockKey
	held     []heldLock
	before   []heldLock
	site     siteChain
	root     string
	nonBlock bool
}

// buildLoState summarizes and instantiates the whole program.
func buildLoState(prog *Program, opts LockOrderOptions) *loState {
	if opts.MaxCallDepth <= 0 {
		opts.MaxCallDepth = 3
	}
	st := &loState{
		maxDepth:  opts.MaxCallDepth,
		fset:      prog.Fset,
		summaries: map[string]*funcSummary{},
		cha:       newCHAIndex(prog),
		payloads:  map[payloadRef][]lockKey{},
		edges:     map[[2]string]*loEdge{},
		seqEdges:  map[string][]string{},
		goTargets: map[string]bool{},
		hasCaller: map[string]bool{},
		opSeen:    map[string]bool{},
	}
	for _, pkg := range prog.Packages {
		summarizePackage(pkg, st.summaries, !opts.NoCtx, st.payloads)
	}
	keys := make([]string, 0, len(st.summaries))
	for k := range st.summaries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Instantiate every function as a potential entry: edges inside
	// callees are discovered through every caller's bindings (the
	// parameters of helpers like nest(outer, inner) only become concrete
	// locks at call sites).
	for _, k := range keys {
		sum := st.summaries[k]
		held := []heldLock{}
		before := []heldLock{}
		st.instantiate(sum, map[types.Object]envVal{}, &held, &before, nil, "fn:"+k, 0, map[string]bool{k: true})
	}
	st.seqOnly = st.sequentialOnly()
	return st
}

// heldJoin accumulates the may-hold join of the paths meeting at one
// point — the arms of a branch that fall through, or a function's
// returns: every lock some path holds, as many times as the path holding
// it most often does.
type heldJoin struct {
	held []heldLock
	any  bool
}

func (j *heldJoin) add(held []heldLock) {
	if !j.any {
		j.held, j.any = append([]heldLock(nil), held...), true
		return
	}
	count := func(hs []heldLock, h heldLock) int {
		n := 0
		for _, x := range hs {
			if x.key.key == h.key.key && x.read == h.read {
				n++
			}
		}
		return n
	}
	for i, h := range held {
		if count(j.held, h) < count(held[:i+1], h) {
			j.held = append(j.held, h)
		}
	}
}

// instantiate replays a summary path by path: each arm of a branch
// starts from the held set at the branch, and the code after it
// continues with the may-hold join of the arms that fall through; the
// caller continues with the join of every return. The acquisition log
// (before) is the whole flow's: every acquisition replayed so far.
func (st *loState) instantiate(sum *funcSummary, env map[types.Object]envVal, held, before *[]heldLock, stack siteChain, root string, depth int, path map[string]bool) {
	type branch struct {
		at  []heldLock // held at the fork
		out heldJoin
	}
	var branches []branch
	var exits heldJoin
	var deferred []*loEvent
	for i := range sum.events {
		ev := &sum.events[i]
		switch {
		case ev.kind == loFork:
			branches = append(branches, branch{at: append([]heldLock(nil), *held...)})
		case ev.kind == loArm:
			*held = append([]heldLock(nil), branches[len(branches)-1].at...)
		case ev.kind == loLive:
			branches[len(branches)-1].out.add(*held)
		case ev.kind == loJoin:
			b := branches[len(branches)-1]
			branches = branches[:len(branches)-1]
			// When no arm falls through, the code after is reached only by
			// a jump, and the state at the fork stands in.
			*held = b.at
			if b.out.any {
				*held = b.out.held
			}
		case ev.kind == loRet:
			exits.add(*held)
		case ev.isDefer:
			deferred = append(deferred, ev)
		default:
			st.event(sum, ev, env, held, before, stack, root, depth, path)
		}
	}
	if exits.any {
		*held = exits.held
	}
	// Deferred events run at function exit, in LIFO order, whichever arm
	// registered them: unlocks release what the body still holds,
	// deferred calls see that state.
	for i := len(deferred) - 1; i >= 0; i-- {
		st.event(sum, deferred[i], env, held, before, stack, root, depth, path)
	}
}

func (st *loState) event(sum *funcSummary, ev *loEvent, env map[types.Object]envVal, held, before *[]heldLock, stack siteChain, root string, depth int, path map[string]bool) {
	switch ev.kind {
	case loAcq:
		ks := st.resolveRefs(ev.lock, env)
		if len(ks) == 0 {
			return
		}
		site := append(siteChain{frameSite{fn: sum, pos: ev.pos}}, stack...)
		if !ev.try {
			for _, k := range ks {
				for _, h := range *held {
					st.addEdge(h, k, ev.read, site, *held, root)
				}
			}
		}
		for _, k := range ks {
			hl := heldLock{key: k, read: ev.read, site: site}
			*held = append(*held, hl)
			*before = append(*before, hl)
		}
	case loRel:
		for _, k := range st.resolveRefs(ev.lock, env) {
			for i := len(*held) - 1; i >= 0; i-- {
				if (*held)[i].key.key == k.key && (*held)[i].read == ev.read {
					*held = append((*held)[:i], (*held)[i+1:]...)
					break
				}
			}
		}
	case loSend, loRecv, loWgWait, loWgDone:
		ks := st.resolveRefs(ev.lock, env)
		if len(ks) == 0 {
			return
		}
		site := append(siteChain{frameSite{fn: sum, pos: ev.pos}}, stack...)
		for _, k := range ks {
			if len(st.chanOps) >= maxChanOps {
				return
			}
			// Dedup identical contexts: the same op is replayed once per
			// entry that reaches it; only distinct (root, held, before)
			// contexts add information.
			sig := fmt.Sprintf("%d|%s|%s|%d|%s|%s", ev.kind, k.key, root, ev.pos, heldKeys(*held), heldKeys(*before))
			if st.opSeen[sig] {
				continue
			}
			st.opSeen[sig] = true
			st.chanOps = append(st.chanOps, chanOp{
				kind:     ev.kind,
				ch:       k,
				held:     append([]heldLock(nil), *held...),
				before:   append([]heldLock(nil), *before...),
				site:     site,
				root:     root,
				nonBlock: ev.nonBlock,
			})
		}
	case loCall:
		var calleeKeys []string
		switch {
		case ev.ifaceMethod != nil:
			calleeKeys = st.cha.targets(ev.ifaceMethod)
		case ev.calleeKey != "":
			calleeKeys = []string{ev.calleeKey}
		case ev.calleeSym != nil:
			if fnk := env[ev.calleeSym].fn; fnk != "" {
				calleeKeys = []string{fnk}
			}
		}
		for _, calleeKey := range calleeKeys {
			// Feed the reachability graph even past the depth bound: the
			// sequential-only guard needs the full picture.
			if ev.isGo {
				st.goTargets[calleeKey] = true
			} else {
				st.seqEdges[sum.key] = append(st.seqEdges[sum.key], calleeKey)
			}
			st.hasCaller[calleeKey] = true
			callee := st.summaries[calleeKey]
			if callee == nil || depth >= st.maxDepth || path[calleeKey] {
				continue
			}
			env2 := make(map[types.Object]envVal, len(env)+len(ev.binds))
			for k, v := range env {
				env2[k] = v
			}
			for _, b := range ev.binds {
				if b.idx >= len(callee.params) || callee.params[b.idx] == nil {
					continue
				}
				switch {
				case b.fnKey != "":
					env2[callee.params[b.idx]] = envVal{fn: b.fnKey}
				case b.fnSym != nil:
					if v, ok := env[b.fnSym]; ok {
						env2[callee.params[b.idx]] = v
					}
				case b.lock.valid():
					if ks := st.resolveRefs(b.lock, env); len(ks) > 0 {
						env2[callee.params[b.idx]] = envVal{locks: ks}
					} else if b.lock.site != "" {
						// Allocation carrier: the callee's field identities
						// refine against this site.
						env2[callee.params[b.idx]] = envVal{site: b.lock.site}
					} else if b.lock.obj != nil && b.lock.key == nil {
						// Carrier passed through another call level.
						if v, ok := env[b.lock.obj]; ok && v.site != "" {
							env2[callee.params[b.idx]] = envVal{site: v.site}
						}
					}
				}
			}
			path[calleeKey] = true
			if ev.isGo {
				// A spawned goroutine starts with an empty stack and holds
				// nothing from its spawner; its acquisition log is its own.
				fresh := []heldLock{}
				freshBefore := []heldLock{}
				st.instantiate(callee, env2, &fresh, &freshBefore, nil, "go:"+st.fset.Position(ev.pos).String(), depth+1, path)
			} else {
				st.instantiate(callee, env2, held, before, append(siteChain{frameSite{fn: sum, pos: ev.pos}}, stack...), root, depth+1, path)
			}
			delete(path, calleeKey)
		}
	}
}

func heldKeys(hs []heldLock) string {
	var b strings.Builder
	for _, h := range hs {
		b.WriteString(h.key.key)
		b.WriteByte(',')
	}
	return b.String()
}

// resolveRefs maps a summary-level lock reference to its concrete
// identities: one for direct/env-bound locks, possibly several for a
// channel payload (every lock observed at any send site). Refinable
// field references (key+obj) pick up the base object's allocation-site
// context from the env; without one they widen to the type-keyed
// fallback and are marked as such.
func (st *loState) resolveRefs(r symRef, env map[types.Object]envVal) []lockKey {
	switch {
	case r.key != nil:
		k := *r.key
		if r.obj != nil {
			if v, ok := env[r.obj]; ok && v.site != "" {
				k.key += "@" + v.site
				k.desc += "@" + v.site
			} else {
				k.widened = true
			}
		}
		return []lockKey{k}
	case r.obj != nil:
		if v, ok := env[r.obj]; ok {
			return v.locks
		}
	case r.payload != nil:
		ks := st.payloads[*r.payload]
		if len(ks) > maxPayloadFanout {
			ks = ks[:maxPayloadFanout]
		}
		return ks
	}
	return nil
}

func (st *loState) addEdge(h heldLock, to lockKey, read bool, acqSite siteChain, held []heldLock, root string) {
	if h.key.key == to.key {
		// Self-edge: only meaningful when the instances provably differ
		// (transfer(src, dst) on two Accounts); same or unknown instance
		// is re-entry, not inversion.
		if h.key.inst == "" || to.inst == "" || h.key.inst == to.inst {
			return
		}
	}
	var guards []string
	for _, g := range held {
		if g.key.key != h.key.key {
			guards = append(guards, g.key.key)
		}
	}
	id := [2]string{h.key.key, to.key}
	e := st.edges[id]
	if e == nil {
		e = &loEdge{from: h.key, to: to}
		st.edges[id] = e
	}
	if len(e.occs) >= maxOccs {
		return
	}
	e.occs = append(e.occs, occurrence{
		holdSite: h.site, acqSite: acqSite, guards: guards, root: root,
		fromInst: h.key.inst, toInst: to.inst,
		holdRead: h.read, acqRead: read,
		widened: h.key.widened && to.widened,
	})
}

// sequentialOnly computes the set of functions that only ever execute
// on the main goroutine's sequential flow: reachable from main.main via
// plain calls and NOT reachable from any go statement target or
// external entry (a function nobody in the program calls — exported
// API is conservatively concurrent).
func (st *loState) sequentialOnly() map[string]bool {
	var mains, conc []string
	for k, sum := range st.summaries {
		isMain := sum.pkg.Name == "main" && sum.runtimeName == "main.main"
		isInit := strings.HasSuffix(sum.runtimeName, ".init")
		if isMain {
			mains = append(mains, k)
		} else if !st.hasCaller[k] && !isInit && !strings.Contains(k, ".func") {
			conc = append(conc, k)
		}
	}
	for k := range st.goTargets {
		conc = append(conc, k)
	}
	reach := func(seeds []string) map[string]bool {
		seen := map[string]bool{}
		var stack []string
		for _, s := range seeds {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, m := range st.seqEdges[n] {
				if !seen[m] {
					seen[m] = true
					stack = append(stack, m)
				}
			}
		}
		return seen
	}
	fromMain, fromConc := reach(mains), reach(conc)
	out := map[string]bool{}
	for k := range fromMain {
		if !fromConc[k] {
			out[k] = true
		}
	}
	return out
}

// --- cycle enumeration and guards ------------------------------------

// normCycleKey is the rotation-independent identity of a cycle: its
// edge pairs, sorted. The same inversion discovered through different
// node orderings or entries deduplicates onto one report.
func normCycleKey(cycle []string) string {
	pairs := make([]string, len(cycle))
	for i := range cycle {
		pairs[i] = cycle[i] + "->" + cycle[(i+1)%len(cycle)]
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ";")
}

func describeRoot(root string) string {
	if k, ok := strings.CutPrefix(root, "fn:"); ok {
		return "entry " + shortFunc(k)
	}
	if p, ok := strings.CutPrefix(root, "go:"); ok {
		return "goroutine at " + shortFile(p)
	}
	return root
}

const maxAltRoots = 3

func (st *loState) collectCycles() *LockOrderResult {
	res := &LockOrderResult{}
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for id := range st.edges {
		adj[id[0]] = append(adj[id[0]], id[1])
		nodes[id[0]], nodes[id[1]] = true, true
	}
	for k := range adj {
		sort.Strings(adj[k])
	}
	ordered := make([]string, 0, len(nodes))
	for n := range nodes {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)

	byKey := map[string]int{}
	emit := func(cycle []string) {
		res.Candidates++
		edges := make([]*loEdge, len(cycle))
		for i := range cycle {
			edges[i] = st.edges[[2]string{cycle[i], cycle[(i+1)%len(cycle)]}]
		}
		c, why := st.confirm(cycle, edges, st.seqOnly)
		if c == nil {
			switch why {
			case "seq":
				res.SuppressedSeq++
			case "rw":
				res.SuppressedRW++
			default:
				res.SuppressedGuard++
			}
			return
		}
		key := normCycleKey(cycle)
		if i, dup := byKey[key]; dup {
			// Same inversion, different enumeration: fold the alternate
			// entries into the existing report.
			prev := &res.Cycles[i]
			merged := append([]string{}, prev.AltRoots...)
			for _, r := range append(c.AltRoots, rootList(c.witnessRoots)...) {
				if len(merged) >= maxAltRoots {
					break
				}
				if !containsStr(merged, r) && !prev.witnessRoots[r] {
					merged = append(merged, r)
				}
			}
			sort.Strings(merged)
			prev.AltRoots = merged
			return
		}
		byKey[key] = len(res.Cycles)
		res.Cycles = append(res.Cycles, *c)
	}

	// Elementary cycles up to maxCycleLen, started (and thus deduplicated)
	// at their smallest node. Self-loops are handled separately below.
	for _, start := range ordered {
		var dfs func(cur string, path []string)
		dfs = func(cur string, path []string) {
			for _, next := range adj[cur] {
				if next == start && len(path) >= 2 {
					emit(append([]string{}, path...))
					continue
				}
				if next <= start || len(path) >= maxCycleLen {
					continue
				}
				onPath := false
				for _, p := range path {
					if p == next {
						onPath = true
						break
					}
				}
				if !onPath {
					dfs(next, append(path, next))
				}
			}
		}
		// Self-loop (two instances of one abstract lock).
		if e, ok := st.edges[[2]string{start, start}]; ok {
			if st.widenedSelfLoop(start, e, nodes) {
				res.Candidates++
				res.SuppressedCtx++
			} else {
				emit([]string{start})
			}
		}
		dfs(start, []string{start})
	}
	return res
}

// widenedSelfLoop reports whether a self-edge is pure widening residue:
// every occurrence is a type-keyed fallback from the synthetic entry
// instantiation of a function real callers DO reach (so the refined,
// allocation-site-split instances were analyzed), and refined instances
// of the same field exist in the graph without reproducing the
// self-edge as a refined cycle. transfer(src, dst)-style self-loops in
// uncalled API survive: their entry instantiation is the only evidence
// there is.
func (st *loState) widenedSelfLoop(key string, e *loEdge, nodes map[string]bool) bool {
	refined := false
	for n := range nodes {
		if strings.HasPrefix(n, key+"@") {
			refined = true
			break
		}
	}
	if !refined {
		return false
	}
	for _, o := range e.occs {
		if !o.widened {
			return false
		}
		k, isFn := strings.CutPrefix(o.root, "fn:")
		if !isFn || !st.hasCaller[k] {
			return false
		}
	}
	return true
}

func containsStr(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func rootList(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// confirm searches the occurrence combinations of a candidate cycle for
// one that survives all guards; the first surviving combination (in
// deterministic order) becomes the reported witness. Guards, in
// reporting priority: sequential-only reachability ("seq"), RWMutex
// reader-reader compatibility ("rw"), common dominating lock ("guard").
func (st *loState) confirm(cycle []string, edges []*loEdge, seqOnly map[string]bool) (*ConfirmedCycle, string) {
	cycleLocks := map[string]bool{}
	for _, n := range cycle {
		cycleLocks[n] = true
	}
	sawSeq, sawRW := false, false
	pick := make([]int, len(edges))
	var try func(i int) *ConfirmedCycle
	try = func(i int) *ConfirmedCycle {
		if i == len(edges) {
			combo := make([]occurrence, len(edges))
			for j, e := range edges {
				combo[j] = e.occs[pick[j]]
			}
			if !rwFeasible(combo) {
				sawRW = true
				return nil
			}
			if !st.concurrent(combo, seqOnly) {
				sawSeq = true
				return nil
			}
			if commonGuard(combo, cycleLocks) {
				return nil
			}
			return st.build(cycle, edges, combo)
		}
		for p := range edges[i].occs {
			pick[i] = p
			if c := try(i + 1); c != nil {
				return c
			}
		}
		return nil
	}
	if c := try(0); c != nil {
		c.AltRoots = st.altRoots(edges, c.witnessRoots)
		return c, ""
	}
	if sawSeq {
		return nil, "seq"
	}
	if sawRW {
		return nil, "rw"
	}
	return nil, "guard"
}

// rwFeasible applies the RWMutex mode semantics around the cycle: edge
// i's acquisition of lock i+1 blocks on edge i+1's hold of that lock —
// unless both are read mode, in which case the runtime admits both
// readers and the cycle dissolves. One compatible adjacency anywhere
// breaks the whole cycle (self-loops check an occurrence against
// itself).
func rwFeasible(combo []occurrence) bool {
	for i := range combo {
		next := combo[(i+1)%len(combo)]
		if combo[i].acqRead && next.holdRead {
			return false
		}
	}
	return true
}

// altRoots collects entry roots (beyond the witness combination's) that
// also realize the cycle's edges, as related information on the report.
func (st *loState) altRoots(edges []*loEdge, witness map[string]bool) []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range edges {
		for _, o := range e.occs {
			if witness[o.root] || seen[o.root] {
				continue
			}
			seen[o.root] = true
			out = append(out, describeRoot(o.root))
		}
	}
	sort.Strings(out)
	if len(out) > maxAltRoots {
		out = out[:maxAltRoots]
	}
	return out
}

// concurrent reports whether the combination's edges can execute on
// distinct goroutines: suppressed only when every occurrence sits on
// the provably-sequential main flow, or when a multi-edge cycle's
// occurrences all come from one identical sequential entry (one thread
// taking both orders itself, the SameThreadCanary shape).
func (st *loState) concurrent(combo []occurrence, seqOnly map[string]bool) bool {
	allSeq := true
	for _, o := range combo {
		k, isFn := strings.CutPrefix(o.root, "fn:")
		if !isFn || !seqOnly[k] {
			allSeq = false
			break
		}
	}
	if allSeq {
		return false
	}
	if len(combo) > 1 {
		// Distinct-thread guard for non-spawned roots: a cycle whose every
		// edge comes from the same non-goroutine entry is one thread's own
		// sequential re-ordering unless that entry is reachable from a
		// spawn site (then two instances may run concurrently).
		first := combo[0].root
		same := true
		for _, o := range combo[1:] {
			if o.root != first {
				same = false
				break
			}
		}
		if same {
			if k, isFn := strings.CutPrefix(first, "fn:"); isFn && seqOnly[k] {
				return false
			}
		}
	}
	return true
}

// commonGuard reports whether some lock outside the cycle is held at
// every edge of the combination — the common dominating lock that
// serializes the would-be deadlock.
func commonGuard(combo []occurrence, cycleLocks map[string]bool) bool {
	counts := map[string]int{}
	for _, o := range combo {
		seen := map[string]bool{}
		for _, g := range o.guards {
			if !cycleLocks[g] && !seen[g] {
				seen[g] = true
				counts[g]++
			}
		}
	}
	for _, n := range counts {
		if n == len(combo) {
			return true
		}
	}
	return false
}

func (st *loState) build(cycle []string, edges []*loEdge, combo []occurrence) *ConfirmedCycle {
	c := &ConfirmedCycle{witnessRoots: map[string]bool{}}
	for i, e := range edges {
		o := combo[i]
		c.Locks = append(c.Locks, e.from.desc)
		c.witnessRoots[o.root] = true
		c.Edges = append(c.Edges, CycleEdge{
			From:      e.from.desc,
			To:        e.to.desc,
			HoldStack: o.holdSite.frames(st.fset),
			AcqStack:  o.acqSite.frames(st.fset),
			holdPos:   o.holdSite[0].pos,
			acqPos:    o.acqSite[0].pos,
		})
	}
	return c
}
