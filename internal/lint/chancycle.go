package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// ChanCycle is the mixed channel/lock deadlock analyzer: a static
// wait-for graph whose nodes are lock identities and pending channel
// (or WaitGroup) operations, with three edge classes:
//
//   - L -> C: a goroutine holding lock L blocks on channel op C (send,
//     recv, or WaitGroup.Wait) — the lock is pinned while waiting;
//   - C -> L: the op that would unblock C (the opposite-direction
//     counterpart, or WaitGroup.Done) lies behind an acquisition of L
//     on some other goroutine's flow — the unblock waits on the lock;
//   - L -> L: the lock graph's own held-while-acquiring edges.
//
// A cycle through at least one channel node is a deadlock the pure lock
// graph cannot see: lock-held-while-sending on one side, recv (or
// Done) gated on the same lock on the other. Channel nodes carry the
// blocked direction, so a pending send only pairs with receivers and
// vice versa; select cases with a default clause never block and are
// excluded. Reports include both goroutine chains.
var ChanCycle = &Analyzer{
	Name: "chancycle",
	Doc:  "report mixed channel/lock wait cycles (lock held across a blocking channel op whose counterpart needs the lock)",
	RunProgram: func(pp *ProgramPass) error {
		for _, d := range pp.analysis().ChanCycle.Diags {
			pp.Report(d)
		}
		return nil
	},
}

// ChanCycleResult is the outcome: Diags carry the operator-facing
// two-chain reports; Cycles are the same findings lowered into the
// ConfirmedCycle shape so -emit turns them into format-v2 signatures
// (one stack per lock acquisition participating in the cycle).
type ChanCycleResult struct {
	Cycles         []ConfirmedCycle
	Diags          []Diagnostic
	Candidates     int
	SuppressedSeq  int
	SuppressedRoot int
}

// ccEdge is one wait-for edge with its witness context.
type ccEdge struct {
	from, to string
	// witnesses: for L->C edges the blocked op plus which held entry is
	// the lock; for C->L edges the counterpart op plus which before
	// entry is the lock; for L->L edges the lock-graph occurrence.
	occs []ccOcc
}

type ccOcc struct {
	op      *chanOp // nil for L->L edges
	lockIdx int     // index into op.held (L->C) or op.before (C->L)
	lockOcc *occurrence
	root    string
}

const (
	ccPendingSend = "send"
	ccPendingRecv = "recv"
	ccPendingWait = "wait"
)

// chanNodeKey encodes the blocked direction so a pending send is only
// unblocked by receivers and vice versa.
func chanNodeKey(pending, chKey string) string {
	return "C:" + pending + ":" + chKey
}

func lockNodeKey(k string) string { return "L:" + k }

// chanCycles builds the combined wait-for graph over the whole-program
// instantiation and enumerates mixed cycles.
func (st *loState) chanCycles() *ChanCycleResult {
	res := &ChanCycleResult{}
	edges := map[[2]string]*ccEdge{}
	descs := map[string]string{}
	addOcc := func(from, to string, o ccOcc) {
		id := [2]string{from, to}
		e := edges[id]
		if e == nil {
			e = &ccEdge{from: from, to: to}
			edges[id] = e
		}
		if len(e.occs) < maxOccs {
			e.occs = append(e.occs, o)
		}
	}

	for i := range st.chanOps {
		op := &st.chanOps[i]
		if op.kind == loWgDone {
			// Done never blocks; it only contributes unblock (C->L) edges.
			continue
		}
		if op.nonBlock {
			continue
		}
		var pending string
		switch op.kind {
		case loSend:
			pending = ccPendingSend
		case loRecv:
			pending = ccPendingRecv
		case loWgWait:
			pending = ccPendingWait
		}
		cnode := chanNodeKey(pending, op.ch.key)
		descs[cnode] = op.ch.desc + " (" + pending + ")"
		for hi, h := range op.held {
			lnode := lockNodeKey(h.key.key)
			descs[lnode] = h.key.desc
			addOcc(lnode, cnode, ccOcc{op: op, lockIdx: hi, root: op.root})
		}
	}
	// Unblock edges: the counterpart op's acquisition log names the
	// locks that gate it.
	for i := range st.chanOps {
		op := &st.chanOps[i]
		var pending string
		switch op.kind {
		case loSend:
			pending = ccPendingRecv // a pending recv is unblocked by this send
		case loRecv:
			pending = ccPendingSend
		case loWgDone:
			pending = ccPendingWait
		default:
			continue
		}
		cnode := chanNodeKey(pending, op.ch.key)
		for bi, b := range op.before {
			lnode := lockNodeKey(b.key.key)
			descs[lnode] = b.key.desc
			addOcc(cnode, lnode, ccOcc{op: op, lockIdx: bi, root: op.root})
		}
	}
	// The lock graph's own edges close mixed cycles through more than
	// one lock.
	for id, e := range st.edges {
		for oi := range e.occs {
			o := &e.occs[oi]
			addOcc(lockNodeKey(id[0]), lockNodeKey(id[1]), ccOcc{lockOcc: o, root: o.root})
		}
		descs[lockNodeKey(id[0])] = e.from.desc
		descs[lockNodeKey(id[1])] = e.to.desc
	}

	// Enumerate elementary cycles (<= maxCycleLen+1 nodes, so a 2-lock
	// inversion plus a channel hop still fits) containing at least one
	// channel node, smallest-node-first for dedup.
	adj := map[string][]string{}
	nodes := map[string]bool{}
	for id := range edges {
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
	maxLen := maxCycleLen + 1

	seen := map[string]bool{}
	emit := func(cycle []string) {
		hasChan := false
		for _, n := range cycle {
			if strings.HasPrefix(n, "C:") {
				hasChan = true
				break
			}
		}
		if !hasChan {
			return // pure lock cycles are lockorder's
		}
		key := normCycleKey(cycle)
		if seen[key] {
			return
		}
		seen[key] = true
		res.Candidates++
		cycleEdges := make([]*ccEdge, len(cycle))
		for i := range cycle {
			cycleEdges[i] = edges[[2]string{cycle[i], cycle[(i+1)%len(cycle)]}]
		}
		st.confirmChanCycle(res, cycle, cycleEdges, descs)
	}
	for _, start := range ordered {
		var dfs func(cur string, path []string)
		dfs = func(cur string, path []string) {
			for _, next := range adj[cur] {
				if next == start && len(path) >= 2 {
					emit(append([]string{}, path...))
					continue
				}
				if next <= start || len(path) >= maxLen {
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
		dfs(start, []string{start})
	}
	return res
}

// confirmChanCycle searches the occurrence combinations for one that
// survives the guards: the two sides of every channel node must come
// from distinct roots (a goroutine cannot be its own counterpart), and
// not every participating context may sit on the provably-sequential
// main flow.
func (st *loState) confirmChanCycle(res *ChanCycleResult, cycle []string, cycleEdges []*ccEdge, descs map[string]string) {
	for _, e := range cycleEdges {
		if e == nil || len(e.occs) == 0 {
			return
		}
	}
	sawRoot, sawSeq := false, false
	pick := make([]int, len(cycleEdges))
	var try func(i int) bool
	try = func(i int) bool {
		if i == len(cycleEdges) {
			combo := make([]ccOcc, len(cycleEdges))
			for j, e := range cycleEdges {
				combo[j] = e.occs[pick[j]]
			}
			// Distinct-root requirement around every channel node: the
			// edge into C (the blocked op) and the edge out of C (the
			// counterpart) must belong to different flows — and not be the
			// same function reached from two entry roots (one sequential
			// flow cannot be its own counterpart).
			for j, n := range cycle {
				if !strings.HasPrefix(n, "C:") {
					continue
				}
				in := combo[(j-1+len(combo))%len(combo)]
				out := combo[j]
				if in.root == out.root {
					sawRoot = true
					return false
				}
				if in.op != nil && out.op != nil && in.op.site[0].fn == out.op.site[0].fn {
					sawRoot = true
					return false
				}
			}
			allSeq := true
			for _, o := range combo {
				k, isFn := strings.CutPrefix(o.root, "fn:")
				if !isFn || !st.seqOnly[k] {
					allSeq = false
					break
				}
			}
			if allSeq {
				sawSeq = true
				return false
			}
			st.buildChanCycle(res, cycle, combo, descs)
			return true
		}
		for p := range cycleEdges[i].occs {
			pick[i] = p
			if try(i + 1) {
				return true
			}
		}
		return false
	}
	if !try(0) {
		if sawSeq && !sawRoot {
			res.SuppressedSeq++
		} else {
			res.SuppressedRoot++
		}
	}
}

func (st *loState) buildChanCycle(res *ChanCycleResult, cycle []string, combo []ccOcc, descs map[string]string) {
	// Lowered ConfirmedCycle: one edge per lock-bearing occurrence, its
	// HoldStack the acquisition chain of the lock (the held entry for a
	// blocked op, the before entry for a counterpart, the hold site for
	// a lock-graph edge) — each a real acquisition stack the runtime
	// can match.
	lowered := ConfirmedCycle{witnessRoots: map[string]bool{}}
	var b strings.Builder
	names := make([]string, len(cycle))
	for i, n := range cycle {
		if d := descs[n]; d != "" {
			names[i] = d
		} else {
			names[i] = n
		}
	}
	fmt.Fprintf(&b, "channel/lock wait cycle: %s -> %s", strings.Join(names, " -> "), names[0])
	var anchor token.Pos
	var related []RelatedInfo
	for i, o := range combo {
		from, to := names[i], names[(i+1)%len(cycle)]
		lowered.witnessRoots[o.root] = true
		switch {
		case o.lockOcc != nil: // L -> L
			lowered.Locks = append(lowered.Locks, from)
			lowered.Edges = append(lowered.Edges, CycleEdge{
				From:      from,
				To:        to,
				HoldStack: o.lockOcc.holdSite.frames(st.fset),
				AcqStack:  o.lockOcc.acqSite.frames(st.fset),
				holdPos:   o.lockOcc.holdSite[0].pos,
				acqPos:    o.lockOcc.acqSite[0].pos,
			})
			fmt.Fprintf(&b, "; acquires %s at %s while holding %s",
				to, frameSiteString(o.lockOcc.acqSite.frames(st.fset)), from)
			if anchor == token.NoPos {
				anchor = o.lockOcc.acqSite[0].pos
			}
		case strings.HasPrefix(cycle[i], "L:"): // L -> C: blocked op holding the lock
			h := o.op.held[o.lockIdx]
			lowered.Locks = append(lowered.Locks, from)
			lowered.Edges = append(lowered.Edges, CycleEdge{
				From:      from,
				To:        to,
				HoldStack: h.site.frames(st.fset),
				AcqStack:  o.op.site.frames(st.fset),
				holdPos:   h.site[0].pos,
				acqPos:    o.op.site[0].pos,
			})
			fmt.Fprintf(&b, "; %s blocks at %s while holding %s (%s)",
				describeRoot(o.root), frameSiteString(o.op.site.frames(st.fset)), from, to)
			if anchor == token.NoPos {
				anchor = o.op.site[0].pos
			}
			related = append(related, RelatedInfo{
				Pos:     h.site[0].pos,
				Message: fmt.Sprintf("%s acquired here, pinned across the blocking %s", from, to),
			})
		default: // C -> L: counterpart gated behind the lock
			bl := o.op.before[o.lockIdx]
			lowered.Locks = append(lowered.Locks, to)
			lowered.Edges = append(lowered.Edges, CycleEdge{
				From:      from,
				To:        to,
				HoldStack: bl.site.frames(st.fset),
				AcqStack:  o.op.site.frames(st.fset),
				holdPos:   bl.site[0].pos,
				acqPos:    o.op.site[0].pos,
			})
			fmt.Fprintf(&b, "; its counterpart (%s at %s) first acquires %s",
				describeRoot(o.root), frameSiteString(o.op.site.frames(st.fset)), to)
			related = append(related, RelatedInfo{
				Pos:     bl.site[0].pos,
				Message: fmt.Sprintf("%s acquired on the counterpart's path here, gating %s", to, from),
			})
		}
	}
	if anchor == token.NoPos && len(combo) > 0 && combo[0].op != nil {
		anchor = combo[0].op.site[0].pos
	}
	res.Diags = append(res.Diags, Diagnostic{Pos: anchor, Message: b.String(), Related: related})
	if len(lowered.Edges) >= 2 {
		res.Cycles = append(res.Cycles, lowered)
	}
}
