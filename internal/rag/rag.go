// Package rag implements the resource allocation graph that represents a
// program's synchronization state (§5.1).
//
// The RAG is a directed multigraph with thread and lock vertices and four
// edge types: request (T wants L), allow (T is allowed to block waiting for
// L), hold (L is held by T, labeled with the acquisition call stack), and
// yield (T yields because of T', labeled with the cause's stack). Hold
// edges form a multiset to support reentrant locks.
//
// The monitor (internal/monitor) owns a RAG instance, updates it from the
// event stream, and periodically calls Detect, which reports:
//
//   - deadlock cycles — cycles made up exclusively of hold, allow, and
//     request edges (§5.2), found by colored DFS over the wait-for
//     projection; and
//   - yield cycles (induced starvation) — components of threads none of
//     which can make progress, where at least one yield edge is involved.
//     A yielding thread is stuck iff *all* its yield causes are stuck
//     (breaking any one binding re-enables the thread), while a waiting
//     thread is stuck iff its lock's holder is stuck; Detect computes the
//     greatest fixpoint of this stuckness relation and then extracts
//     strongly connected components, matching §5.2's definition ("all
//     nodes reachable from a node T through T's yield edges can in turn
//     reach T").
package rag

import (
	"fmt"
	"sort"

	"dimmunix/internal/event"
	"dimmunix/internal/stack"
)

// Thread is a thread vertex.
type Thread struct {
	ID int32

	// Wait is the lock this thread currently requests or is allowed to
	// wait for (at most one outstanding lock operation per thread).
	Wait      *Lock
	WaitKind  event.Kind // event.Request or event.Go (allow)
	WaitStack *stack.Interned

	// Yielding is true while the thread is paused by the avoidance code.
	// A yielding thread keeps its (flipped) request edge but is not
	// committed to block, so that edge does not participate in deadlock
	// cycles; permanent yield conditions are yield cycles instead.
	Yielding bool

	// Holds maps lock ID -> hold edge (multiset via HoldEdge.Stacks).
	Holds map[uint64]*HoldEdge

	// Yields maps cause thread ID -> yield edge.
	Yields map[int32]*YieldEdge

	// spares recycle fully released hold edges: lock/unlock churn would
	// otherwise allocate a HoldEdge (plus its Stacks backing array) per
	// acquisition — per nested one, were only the last edge kept — and
	// the monitor's Apply loop shares cores with the instrumented
	// application. At most maxSpares are kept.
	spares []*HoldEdge
}

// maxSpares bounds a thread's recycled hold edges: as many as it holds
// locks at once, up to a nesting depth locking code rarely exceeds.
const maxSpares = 8

// HoldEdge is a lock->thread hold edge; Stacks has one entry per
// outstanding (reentrant) acquisition, in acquisition order.
type HoldEdge struct {
	Lock   *Lock
	Thread *Thread
	Stacks []*stack.Interned
}

// Label returns the stack label of the hold edge: the call stack of the
// first (ownership-taking) acquisition.
func (h *HoldEdge) Label() *stack.Interned {
	if len(h.Stacks) == 0 {
		return nil
	}
	return h.Stacks[0]
}

// YieldEdge is a thread->thread yield edge labeled with the cause's stack.
type YieldEdge struct {
	From, To *Thread
	LID      uint64
	Label    *stack.Interned
}

// Lock is a lock vertex. Holders carries every thread with an outstanding
// hold edge — a single entry for an exclusively held mutex, several for a
// reader-held RWMutex. Holder is kept as the most recent exclusive-style
// acquirer for diagnostics and legacy consumers; detection runs on
// Holders.
type Lock struct {
	ID      uint64
	Holder  *Thread
	Holders map[int32]*Thread
	Waiters map[int32]*Thread
}

// RAG is the resource allocation graph. It is not safe for concurrent use;
// the monitor goroutine is its sole owner.
type RAG struct {
	threads map[int32]*Thread
	locks   map[uint64]*Lock
	// dirty holds threads whose edges changed since the last Detect;
	// there cannot be new cycles that involve exclusively old edges
	// (§5.2), so detection is seeded here.
	dirty map[int32]*Thread
}

// New returns an empty RAG.
func New() *RAG {
	return &RAG{
		threads: make(map[int32]*Thread),
		locks:   make(map[uint64]*Lock),
		dirty:   make(map[int32]*Thread),
	}
}

func (g *RAG) thread(id int32) *Thread {
	t := g.threads[id]
	if t == nil {
		t = &Thread{
			ID:     id,
			Holds:  make(map[uint64]*HoldEdge),
			Yields: make(map[int32]*YieldEdge),
		}
		g.threads[id] = t
	}
	return t
}

func (g *RAG) lock(id uint64) *Lock {
	l := g.locks[id]
	if l == nil {
		l = &Lock{
			ID:      id,
			Holders: make(map[int32]*Thread),
			Waiters: make(map[int32]*Thread),
		}
		g.locks[id] = l
	}
	return l
}

// NumThreads returns the number of thread vertices.
func (g *RAG) NumThreads() int { return len(g.threads) }

// NumLocks returns the number of lock vertices.
func (g *RAG) NumLocks() int { return len(g.locks) }

// Thread returns the thread vertex with the given ID, or nil.
func (g *RAG) Thread(id int32) *Thread { return g.threads[id] }

// LockNode returns the lock vertex with the given ID, or nil.
func (g *RAG) LockNode(id uint64) *Lock { return g.locks[id] }

func (t *Thread) clearYields() {
	for id, y := range t.Yields {
		_ = y
		delete(t.Yields, id)
	}
}

func (t *Thread) clearWait() {
	if t.Wait != nil {
		delete(t.Wait.Waiters, t.ID)
		t.Wait = nil
		t.WaitStack = nil
	}
}

// Apply updates the graph according to one instrumentation event.
func (g *RAG) Apply(ev event.Event) {
	switch ev.Kind {
	case event.Request:
		t := g.thread(ev.TID)
		l := g.lock(ev.LID)
		t.clearWait()
		t.Wait = l
		t.WaitKind = event.Request
		t.WaitStack = ev.Stack
		l.Waiters[t.ID] = t
		g.dirty[t.ID] = t

	case event.Go:
		t := g.thread(ev.TID)
		l := g.lock(ev.LID)
		if t.Wait != l {
			t.clearWait()
			t.Wait = l
			l.Waiters[t.ID] = t
		}
		t.WaitKind = event.Go
		t.WaitStack = ev.Stack
		t.Yielding = false
		// §5.4: on a GO decision any yield edges emerging from the
		// thread are removed.
		t.clearYields()
		g.dirty[t.ID] = t

	case event.Yield:
		t := g.thread(ev.TID)
		l := g.lock(ev.LID)
		// The tentative allow edge is flipped around into a request
		// edge (§5.4).
		if t.Wait != l {
			t.clearWait()
			t.Wait = l
			l.Waiters[t.ID] = t
		}
		t.WaitKind = event.Request
		t.WaitStack = ev.Stack
		t.Yielding = true
		t.clearYields()
		for _, c := range ev.Causes {
			if c.TID == t.ID {
				continue
			}
			to := g.thread(c.TID)
			t.Yields[c.TID] = &YieldEdge{From: t, To: to, LID: c.LID, Label: c.Stack}
		}
		g.dirty[t.ID] = t

	case event.Acquired:
		t := g.thread(ev.TID)
		l := g.lock(ev.LID)
		t.clearWait()
		t.clearYields()
		t.Yielding = false
		h := t.Holds[l.ID]
		if h == nil {
			if n := len(t.spares); n > 0 {
				h = t.spares[n-1]
				t.spares = t.spares[:n-1]
				h.Lock, h.Thread = l, t
			} else {
				h = &HoldEdge{Lock: l, Thread: t}
			}
			t.Holds[l.ID] = h
		}
		h.Stacks = append(h.Stacks, ev.Stack)
		l.Holder = t
		l.Holders[t.ID] = t
		g.dirty[t.ID] = t

	case event.Release:
		t := g.thread(ev.TID)
		l := g.lock(ev.LID)
		h := t.Holds[l.ID]
		if h != nil {
			if n := len(h.Stacks); n > 0 {
				h.Stacks[n-1] = nil
				h.Stacks = h.Stacks[:n-1]
			}
			if len(h.Stacks) == 0 {
				delete(t.Holds, l.ID)
				delete(l.Holders, t.ID)
				if l.Holder == t {
					l.Holder = nil
				}
				h.Lock, h.Thread = nil, nil
				if len(t.spares) < maxSpares {
					t.spares = append(t.spares, h)
				}
			}
		}
		g.dirty[t.ID] = t

	case event.Cancel:
		t := g.thread(ev.TID)
		t.clearWait()
		t.clearYields()
		t.Yielding = false
		g.dirty[t.ID] = t

	case event.ThreadExit:
		t := g.threads[ev.TID]
		if t == nil {
			return
		}
		t.clearWait()
		t.clearYields()
		for _, h := range t.Holds {
			delete(h.Lock.Holders, t.ID)
			if h.Lock.Holder == t {
				h.Lock.Holder = nil
			}
		}
		delete(g.threads, ev.TID)
		delete(g.dirty, ev.TID)
	}
}

// Cycle describes one detected deadlock or starvation condition.
type Cycle struct {
	// Starvation is true for yield cycles, false for deadlock cycles.
	Starvation bool
	// Threads are the IDs of the threads in the cycle, ascending.
	Threads []int32
	// Locks are the IDs of the locks in the cycle, ascending.
	Locks []uint64
	// Stacks is the signature label multiset: hold-edge labels for
	// deadlock cycles; hold- plus yield-edge labels for yield cycles.
	Stacks []*stack.Interned
}

// String renders a compact description for logs.
func (c *Cycle) String() string {
	kind := "deadlock"
	if c.Starvation {
		kind = "starvation"
	}
	return fmt.Sprintf("%s cycle: threads=%v locks=%v (%d stacks)", kind, c.Threads, c.Locks, len(c.Stacks))
}

// Detect searches for deadlock cycles and yield cycles. Only threads whose
// edges changed since the previous Detect seed the deadlock DFS; the
// starvation fixpoint always runs over the full waiting set (it is linear
// and must observe threads whose stuckness changed transitively).
func (g *RAG) Detect() []*Cycle {
	var out []*Cycle
	out = append(out, g.detectDeadlocks()...)
	out = append(out, g.detectStarvation()...)
	g.dirty = make(map[int32]*Thread)
	return out
}

// waitHolder returns the thread that t transitively waits on through its
// request/allow edge, or nil — the exclusive-lock special case, retained
// for single-holder consumers (tests' brute-force oracle). Yielding
// threads are not committed to block, so they contribute no wait-for edge
// to deadlock cycles.
func waitHolder(t *Thread) *Thread {
	if t.Wait == nil || t.Yielding {
		return nil
	}
	h := t.Wait.Holder
	if h == t {
		// Reentrant re-acquisition in flight; not a wait-for edge.
		return nil
	}
	return h
}

// waitHolders returns every thread t transitively waits on through its
// request/allow edge — all current holders of the awaited lock, which is
// several threads when the lock is reader-held. A thread never waits on
// itself (reentrant or recursive-read re-acquisition in flight).
func waitHolders(t *Thread) []*Thread {
	if t.Wait == nil || t.Yielding || len(t.Wait.Holders) == 0 {
		return nil
	}
	out := make([]*Thread, 0, len(t.Wait.Holders))
	for _, h := range t.Wait.Holders {
		if h != t {
			out = append(out, h)
		}
	}
	return out
}

const (
	white = 0
	grey  = 1
	black = 2
)

// detectDeadlocks runs colored DFS over the wait-for projection
// (T -> holders(T.Wait)), seeded at dirty threads. A thread has several
// out-edges when the lock it awaits is reader-held, so this is a full
// DFS, not a single-out-edge chain walk.
func (g *RAG) detectDeadlocks() []*Cycle {
	var out []*Cycle
	color := make(map[int32]int, len(g.threads))
	type frame struct {
		t    *Thread
		succ []*Thread
		i    int
	}
	for id := range g.dirty {
		if g.threads[id] == nil || color[id] != white {
			continue
		}
		var path []*frame
		push := func(t *Thread) {
			color[t.ID] = grey
			path = append(path, &frame{t: t, succ: waitHolders(t)})
		}
		push(g.threads[id])
		for len(path) > 0 {
			f := path[len(path)-1]
			if f.i < len(f.succ) {
				w := f.succ[f.i]
				f.i++
				switch color[w.ID] {
				case white:
					push(w)
				case grey:
					// Found a cycle: the suffix of path starting at w.
					start := 0
					for i, p := range path {
						if p.t == w {
							start = i
							break
						}
					}
					cyc := make([]*Thread, 0, len(path)-start)
					for _, p := range path[start:] {
						cyc = append(cyc, p.t)
					}
					out = append(out, buildDeadlockCycle(cyc))
				}
				continue
			}
			color[f.t.ID] = black
			path = path[:len(path)-1]
		}
	}
	return out
}

// buildDeadlockCycle assembles the Cycle record for path, where each
// cycle[i+1] holds the lock cycle[i] waits for (wrapping around at the
// end).
func buildDeadlockCycle(cycle []*Thread) *Cycle {
	c := &Cycle{}
	for i, t := range cycle {
		c.Threads = append(c.Threads, t.ID)
		if t.Wait == nil {
			continue
		}
		c.Locks = append(c.Locks, t.Wait.ID)
		next := cycle[(i+1)%len(cycle)]
		if he := next.Holds[t.Wait.ID]; he != nil && he.Label() != nil {
			c.Stacks = append(c.Stacks, he.Label())
		}
	}
	c.normalize()
	return c
}

// detectStarvation computes the stuck fixpoint and extracts SCCs that
// involve yield edges.
func (g *RAG) detectStarvation() []*Cycle {
	// Start from the candidate set: all threads that are waiting or
	// yielding.
	stuck := make(map[int32]*Thread)
	for id, t := range g.threads {
		if t.Wait != nil || len(t.Yields) > 0 {
			stuck[id] = t
		}
	}
	// Greatest fixpoint: repeatedly un-stick threads that can progress.
	for changed := true; changed; {
		changed = false
		for id, t := range stuck {
			if !isStuckGiven(t, stuck) {
				delete(stuck, id)
				changed = true
			}
		}
	}
	if len(stuck) == 0 {
		return nil
	}
	// Extract SCCs over stuck-set thread edges: yield edges plus
	// wait-for edges.
	sccs := tarjanSCC(stuck)
	var out []*Cycle
	for _, comp := range sccs {
		if len(comp) < 2 && !hasSelfLoop(comp) {
			continue
		}
		inComp := make(map[int32]bool, len(comp))
		for _, t := range comp {
			inComp[t.ID] = true
		}
		hasYield := false
		c := &Cycle{Starvation: true}
		lockSeen := make(map[uint64]bool)
		type holdKey struct {
			l uint64
			t int32
		}
		holdSeen := make(map[holdKey]bool)
		for _, t := range comp {
			c.Threads = append(c.Threads, t.ID)
			for _, y := range t.Yields {
				if inComp[y.To.ID] {
					hasYield = true
					if y.Label != nil {
						c.Stacks = append(c.Stacks, y.Label)
					}
				}
			}
			if t.Wait != nil {
				for _, h := range t.Wait.Holders {
					if h == t || !inComp[h.ID] {
						continue
					}
					if !lockSeen[t.Wait.ID] {
						lockSeen[t.Wait.ID] = true
						c.Locks = append(c.Locks, t.Wait.ID)
					}
					// One label per (lock, holder): a reader-held lock
					// contributes each in-component reader's stack once.
					k := holdKey{l: t.Wait.ID, t: h.ID}
					if holdSeen[k] {
						continue
					}
					holdSeen[k] = true
					if he := h.Holds[t.Wait.ID]; he != nil && he.Label() != nil {
						c.Stacks = append(c.Stacks, he.Label())
					}
				}
			}
		}
		if !hasYield {
			// Pure deadlock SCC; already reported by detectDeadlocks.
			continue
		}
		c.normalize()
		out = append(out, c)
	}
	return out
}

// isStuckGiven reports whether t remains stuck assuming the threads in
// stuck are stuck.
func isStuckGiven(t *Thread, stuck map[int32]*Thread) bool {
	if len(t.Yields) > 0 {
		// A yielding thread is stuck iff every cause is stuck with its
		// binding intact: the cause still holds or awaits the bound
		// lock. Any broken binding or un-stuck cause frees t.
		for _, y := range t.Yields {
			cause, ok := stuck[y.To.ID]
			if !ok {
				return false
			}
			if !bindingIntact(cause, y.LID) {
				return false
			}
		}
		return true
	}
	if t.Wait != nil {
		// The lock may be held by several readers; t cannot progress as
		// long as any one of them is stuck. No (other) holder stuck —
		// free, reentrant, or all holders progressing — means t can
		// progress.
		for _, h := range t.Wait.Holders {
			if h == t {
				continue
			}
			if _, ok := stuck[h.ID]; ok {
				return true
			}
		}
		return false
	}
	return false
}

// bindingIntact reports whether a yield-cause binding (cause, lid) still
// holds: the cause thread holds the lock, or is committed to wait for it
// through an allow edge. A *yielding* cause's flipped request edge is not
// a commitment (§5.4) — such a binding has been broken and re-formed, and
// the yielder will have been woken to re-evaluate.
func bindingIntact(cause *Thread, lid uint64) bool {
	if _, held := cause.Holds[lid]; held {
		return true
	}
	return cause.Wait != nil && cause.Wait.ID == lid &&
		!cause.Yielding && cause.WaitKind == event.Go
}

func hasSelfLoop(comp []*Thread) bool {
	for _, t := range comp {
		if _, ok := t.Yields[t.ID]; ok {
			return true
		}
		if t.Wait != nil {
			if _, ok := t.Wait.Holders[t.ID]; ok {
				return true
			}
		}
	}
	return false
}

// successors enumerates thread->thread edges within the stuck set.
func successors(t *Thread, stuck map[int32]*Thread) []*Thread {
	var out []*Thread
	for _, y := range t.Yields {
		if s, ok := stuck[y.To.ID]; ok {
			out = append(out, s)
		}
	}
	if t.Wait != nil {
		for _, h := range t.Wait.Holders {
			if h == t {
				continue
			}
			if s, ok := stuck[h.ID]; ok {
				out = append(out, s)
			}
		}
	}
	return out
}

// tarjanSCC computes strongly connected components of the stuck subgraph.
func tarjanSCC(stuck map[int32]*Thread) [][]*Thread {
	type frame struct {
		t    *Thread
		succ []*Thread
		i    int
	}
	index := make(map[int32]int, len(stuck))
	low := make(map[int32]int, len(stuck))
	onStack := make(map[int32]bool, len(stuck))
	var stackArr []*Thread
	var sccs [][]*Thread
	next := 0

	// Deterministic iteration order for reproducible output.
	ids := make([]int32, 0, len(stuck))
	for id := range stuck {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, rootID := range ids {
		if _, seen := index[rootID]; seen {
			continue
		}
		var callStack []*frame
		push := func(t *Thread) {
			index[t.ID] = next
			low[t.ID] = next
			next++
			stackArr = append(stackArr, t)
			onStack[t.ID] = true
			callStack = append(callStack, &frame{t: t, succ: successors(t, stuck)})
		}
		push(stuck[rootID])
		for len(callStack) > 0 {
			f := callStack[len(callStack)-1]
			if f.i < len(f.succ) {
				w := f.succ[f.i]
				f.i++
				if _, seen := index[w.ID]; !seen {
					push(w)
				} else if onStack[w.ID] {
					if index[w.ID] < low[f.t.ID] {
						low[f.t.ID] = index[w.ID]
					}
				}
				continue
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1]
				if low[f.t.ID] < low[parent.t.ID] {
					low[parent.t.ID] = low[f.t.ID]
				}
			}
			if low[f.t.ID] == index[f.t.ID] {
				var comp []*Thread
				for {
					w := stackArr[len(stackArr)-1]
					stackArr = stackArr[:len(stackArr)-1]
					onStack[w.ID] = false
					comp = append(comp, w)
					if w == f.t {
						break
					}
				}
				sccs = append(sccs, comp)
			}
		}
	}
	return sccs
}

func (c *Cycle) normalize() {
	sort.Slice(c.Threads, func(i, j int) bool { return c.Threads[i] < c.Threads[j] })
	sort.Slice(c.Locks, func(i, j int) bool { return c.Locks[i] < c.Locks[j] })
	sort.Slice(c.Stacks, func(i, j int) bool { return c.Stacks[i].H < c.Stacks[j].H })
}

// HoldCountOf returns the number of locks thread id currently holds
// (counting each lock once regardless of reentrancy), used by the monitor
// to pick the starvation-break victim "holding most locks" (§3).
func (g *RAG) HoldCountOf(id int32) int {
	t := g.threads[id]
	if t == nil {
		return 0
	}
	return len(t.Holds)
}
