package avoidance

import (
	"math/rand"
	"testing"

	"dimmunix/internal/event"
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

type env struct {
	c      *Cache
	hist   *signature.History
	in     *stack.Interner
	events []event.Event
}

func newEnv(cfg Config) *env {
	e := &env{
		hist: signature.NewHistory(),
		in:   stack.NewInterner(),
	}
	e.c = NewCache(cfg, e.in, e.hist, &Stats{}, func(ev event.Event) {
		e.events = append(e.events, ev)
	})
	return e
}

// note: the event callback appends without locking, so tests drive the
// cache single-threadedly except where stated.

func (e *env) stk(frames ...string) *stack.Interned {
	s := make(stack.Stack, len(frames))
	for i, f := range frames {
		s[i] = stack.Frame{Func: f, File: "t.go", Line: i + 1}
	}
	return e.in.Intern(s)
}

func (e *env) addSig(depth int, stacks ...*stack.Interned) *signature.Signature {
	raw := make([]stack.Stack, len(stacks))
	for i, s := range stacks {
		raw[i] = s.S
	}
	sig := signature.New(signature.Deadlock, raw, depth)
	e.hist.Add(sig)
	return sig
}

func TestEmptyHistoryAlwaysGo(t *testing.T) {
	e := newEnv(Config{Mode: ModeFull})
	th := e.c.NewThread(1, 1, "t1")
	l := e.c.NewLock()
	s := e.stk("lock", "update", "main")
	for i := 0; i < 5; i++ {
		dec := e.c.Request(th, l, s)
		if !dec.Go {
			t.Fatal("empty history must always GO (§5.7)")
		}
		e.c.Acquired(th, l)
		e.c.Release(th, l)
	}
	if e.c.Stats().Yields.Load() != 0 {
		t.Error("no yields expected")
	}
}

// setupPaperExample builds the §4 example: signature {[s1,s3],[s2,s3]},
// thread Tk acquired lock B via [s2,s3]; thread Tl now requests A via
// [s1,s3]. Dimmunix must force Tl to yield.
func setupPaperExample(t *testing.T, cfg Config) (*env, *ThreadState, *LockState, *stack.Interned, Decision) {
	t.Helper()
	e := newEnv(cfg)
	s13 := e.stk("lock", "update:s3", "main:s1")
	s23 := e.stk("lock", "update:s3", "main:s2")
	e.addSig(3, s13, s23)

	tk := e.c.NewThread(1, 1, "Tk")
	tl := e.c.NewThread(2, 2, "Tl")
	lockB := e.c.NewLock()
	lockA := e.c.NewLock()

	// Tk takes B via [s2,s3].
	if dec := e.c.Request(tk, lockB, s23); !dec.Go {
		t.Fatal("Tk alone must GO")
	}
	e.c.Acquired(tk, lockB)

	// Tl requests A via [s1,s3].
	dec := e.c.Request(tl, lockA, s13)
	return e, tl, lockA, s13, dec
}

func TestPaperExampleYield(t *testing.T) {
	e, _, _, _, dec := setupPaperExample(t, Config{Mode: ModeFull})
	if dec.Go {
		t.Fatal("Tl must yield: signature instance present")
	}
	if dec.Sig == nil || len(dec.Causes) != 1 {
		t.Fatalf("decision = %+v", dec)
	}
	if dec.Causes[0].T.ID != 1 {
		t.Errorf("cause thread = %d, want Tk", dec.Causes[0].T.ID)
	}
	if got := e.c.Stats().Yields.Load(); got != 1 {
		t.Errorf("yields = %d", got)
	}
	// A yield event with causes must have been emitted.
	last := e.events[len(e.events)-1]
	if last.Kind != event.Yield || len(last.Causes) != 1 || last.SigID != dec.Sig.ID {
		t.Errorf("last event = %+v", last)
	}
}

func TestPaperExampleProceedsAfterRelease(t *testing.T) {
	e, tl, lockA, s13, dec := setupPaperExample(t, Config{Mode: ModeFull})
	if dec.Go {
		t.Fatal("precondition: yield")
	}
	// Tk releases B: Tl must be woken and its re-request must GO.
	tk := dec.Causes[0].T
	lockB := dec.Causes[0].L
	e.c.Release(tk, lockB)
	select {
	case <-tl.Wake:
	default:
		t.Fatal("release of the cause lock must wake the yielded thread")
	}
	if dec := e.c.Request(tl, lockA, s13); !dec.Go {
		t.Fatal("after the instance broke, Tl must GO")
	}
}

func TestNoYieldOnNonDeadlockPattern(t *testing.T) {
	// §4: pattern {[s1,s3],[s1,s3]} does not match signature
	// {[s1,s3],[s2,s3]} — Dimmunix must not serialize it (unlike gate
	// locks).
	e := newEnv(Config{Mode: ModeFull})
	s13 := e.stk("lock", "update:s3", "main:s1")
	s23 := e.stk("lock", "update:s3", "main:s2")
	e.addSig(3, s13, s23)

	t1 := e.c.NewThread(1, 1, "T1")
	t2 := e.c.NewThread(2, 2, "T2")
	a := e.c.NewLock()
	b := e.c.NewLock()

	if dec := e.c.Request(t1, a, s13); !dec.Go {
		t.Fatal("T1 must GO")
	}
	e.c.Acquired(t1, a)
	if dec := e.c.Request(t2, b, s13); !dec.Go {
		t.Fatal("both threads on [s1,s3]: not the deadlock pattern, must GO")
	}
}

func TestDistinctLocksRequired(t *testing.T) {
	// The signature instance needs distinct locks: a thread holding the
	// same lock the requester wants cannot bind a second tuple on it.
	e := newEnv(Config{Mode: ModeFull})
	sa := e.stk("lock", "fa")
	sb := e.stk("lock", "fb")
	e.addSig(2, sa, sb)

	t1 := e.c.NewThread(1, 1, "T1")
	t2 := e.c.NewThread(2, 2, "T2")
	l := e.c.NewLock()

	if dec := e.c.Request(t1, l, sb); !dec.Go {
		t.Fatal("T1 must GO")
	}
	e.c.Acquired(t1, l)
	// T2 requests the SAME lock with sa: tuples would share lock l.
	if dec := e.c.Request(t2, l, sa); !dec.Go {
		t.Fatal("same lock cannot instantiate the signature")
	}
}

func TestDistinctThreadsRequired(t *testing.T) {
	// One thread holding lock B with [sb] then requesting A with [sa]
	// cannot instantiate a two-stack signature by itself.
	e := newEnv(Config{Mode: ModeFull})
	sa := e.stk("lock", "fa")
	sb := e.stk("lock", "fb")
	e.addSig(2, sa, sb)

	t1 := e.c.NewThread(1, 1, "T1")
	a := e.c.NewLock()
	b := e.c.NewLock()

	if dec := e.c.Request(t1, b, sb); !dec.Go {
		t.Fatal("GO expected")
	}
	e.c.Acquired(t1, b)
	if dec := e.c.Request(t1, a, sa); !dec.Go {
		t.Fatal("single thread must not match a two-thread signature")
	}
}

func TestAllowEdgeCountsTowardInstance(t *testing.T) {
	// §5.4: allow edges represent a commitment to wait and count in
	// instantiation checks, not just hold edges.
	e := newEnv(Config{Mode: ModeFull})
	sa := e.stk("lock", "fa")
	sb := e.stk("lock", "fb")
	e.addSig(2, sa, sb)

	t1 := e.c.NewThread(1, 1, "T1")
	t2 := e.c.NewThread(2, 2, "T2")
	a := e.c.NewLock()
	b := e.c.NewLock()

	// T1 is ALLOWED on b (not yet acquired).
	if dec := e.c.Request(t1, b, sb); !dec.Go {
		t.Fatal("GO expected")
	}
	// T2 requests a with sa: instance {(T1,b,sb),(T2,a,sa)} exists.
	if dec := e.c.Request(t2, a, sa); dec.Go {
		t.Fatal("allow edge must count toward instantiation")
	}
}

func TestMatchingDepthControlsGenerality(t *testing.T) {
	e := newEnv(Config{Mode: ModeFull})
	// Signature recorded from stacks whose outer frames differ from the
	// runtime stacks below.
	sigA := e.stk("lock", "update", "callerX")
	sigB := e.stk("lock", "update2", "callerY")
	e.addSig(2, sigA, sigB) // depth 2: only innermost two frames matter

	runA := e.stk("lock", "update", "callerZ")
	runB := e.stk("lock", "update2", "callerW")

	t1 := e.c.NewThread(1, 1, "T1")
	t2 := e.c.NewThread(2, 2, "T2")
	a := e.c.NewLock()
	b := e.c.NewLock()

	if dec := e.c.Request(t1, b, runB); !dec.Go {
		t.Fatal("GO expected")
	}
	e.c.Acquired(t1, b)
	if dec := e.c.Request(t2, a, runA); dec.Go {
		t.Fatal("depth-2 match must trigger despite differing callers")
	}
}

func TestDeeperDepthRejectsDifferingCallers(t *testing.T) {
	e := newEnv(Config{Mode: ModeFull})
	sigA := e.stk("lock", "update", "callerX")
	sigB := e.stk("lock", "update2", "callerY")
	e.addSig(3, sigA, sigB) // full-depth matching

	runA := e.stk("lock", "update", "callerZ") // differs at frame 3
	runB := e.stk("lock", "update2", "callerY")

	t1 := e.c.NewThread(1, 1, "T1")
	t2 := e.c.NewThread(2, 2, "T2")
	a := e.c.NewLock()
	b := e.c.NewLock()

	if dec := e.c.Request(t1, b, runB); !dec.Go {
		t.Fatal("GO expected")
	}
	e.c.Acquired(t1, b)
	if dec := e.c.Request(t2, a, runA); !dec.Go {
		t.Fatal("depth-3 mismatch must not trigger avoidance")
	}
}

func TestDisabledSignatureIgnored(t *testing.T) {
	e, tl, lockA, s13, dec := setupPaperExample(t, Config{Mode: ModeFull})
	if dec.Go {
		t.Fatal("precondition: yield")
	}
	e.hist.SetDisabled(dec.Sig.ID, true)
	if dec := e.c.Request(tl, lockA, s13); !dec.Go {
		t.Fatal("disabled signature must never be avoided (§5.7)")
	}
}

func TestIgnoreDecisionsMode(t *testing.T) {
	e, _, _, _, dec := setupPaperExample(t, Config{Mode: ModeFull, IgnoreDecisions: true})
	if !dec.Go {
		t.Fatal("ignore-decisions must turn YIELD into GO")
	}
	if dec.Sig == nil {
		t.Fatal("suppressed decision must still report the signature")
	}
	if e.c.Stats().Ignored.Load() != 1 {
		t.Error("ignored counter not bumped")
	}
}

func TestForcedGoBypassesMatching(t *testing.T) {
	e, tl, lockA, s13, dec := setupPaperExample(t, Config{Mode: ModeFull})
	if dec.Go {
		t.Fatal("precondition: yield")
	}
	e.c.ForceGo(tl)
	select {
	case <-tl.Wake:
	default:
		t.Fatal("ForceGo must wake the thread")
	}
	if dec := e.c.Request(tl, lockA, s13); !dec.Go {
		t.Fatal("forced thread must GO")
	}
	// The bypass is one-shot.
	e.c.Cancel(tl, lockA)
	if dec := e.c.Request(tl, lockA, s13); dec.Go {
		t.Fatal("forcedGo must be one-shot")
	}
}

func TestNoteAbortAutoDisables(t *testing.T) {
	e, tl, _, _, dec := setupPaperExample(t, Config{Mode: ModeFull})
	if dec.Go {
		t.Fatal("precondition: yield")
	}
	e.c.NoteAbort(tl, dec.Sig.ID, 2)
	if dec.Sig.Disabled {
		t.Fatal("one abort below threshold must not disable")
	}
	e.c.NoteAbort(tl, dec.Sig.ID, 2)
	if !dec.Sig.Disabled {
		t.Fatal("threshold aborts must auto-disable the signature (§5.7)")
	}
	if e.c.Stats().Aborts.Load() != 2 {
		t.Error("abort counter wrong")
	}
}

func TestCancelRollsBackAllow(t *testing.T) {
	e := newEnv(Config{Mode: ModeFull})
	sa := e.stk("lock", "fa")
	sb := e.stk("lock", "fb")
	e.addSig(2, sa, sb)

	t1 := e.c.NewThread(1, 1, "T1")
	t2 := e.c.NewThread(2, 2, "T2")
	a := e.c.NewLock()
	b := e.c.NewLock()

	if dec := e.c.Request(t1, b, sb); !dec.Go {
		t.Fatal("GO expected")
	}
	e.c.Cancel(t1, b) // trylock failed: allow rolled back
	if dec := e.c.Request(t2, a, sa); !dec.Go {
		t.Fatal("canceled allow must not count toward instantiation")
	}
}

func TestReleaseOfReentrantHoldKeepsOwnership(t *testing.T) {
	// DisableFastPath: this test exercises the guarded tier's reentrant
	// entry bookkeeping, which a safe stack would otherwise bypass.
	e := newEnv(Config{Mode: ModeFull, DisableFastPath: true})
	t1 := e.c.NewThread(1, 1, "T1")
	l := e.c.NewLock()
	s1 := e.stk("lock", "outer")
	s2 := e.stk("lock", "inner")

	e.c.Request(t1, l, s1)
	e.c.Acquired(t1, l)
	e.c.ReentrantAcquired(t1, l, s2)
	e.c.Release(t1, l) // inner release
	if got := e.c.HolderOf(l); got != 1 {
		t.Fatalf("owner = %d, want 1 after inner release", got)
	}
	e.c.Release(t1, l)
	if got := e.c.HolderOf(l); got != 0 {
		t.Fatalf("owner = %d, want free", got)
	}
}

func TestThreadExitCleansEntries(t *testing.T) {
	e := newEnv(Config{Mode: ModeFull})
	sa := e.stk("lock", "fa")
	sb := e.stk("lock", "fb")
	e.addSig(2, sa, sb)

	t1 := e.c.NewThread(1, 1, "T1")
	t2 := e.c.NewThread(2, 2, "T2")
	a := e.c.NewLock()
	b := e.c.NewLock()

	e.c.Request(t1, b, sb)
	e.c.Acquired(t1, b)
	e.c.ThreadExit(t1)
	if dec := e.c.Request(t2, a, sa); !dec.Go {
		t.Fatal("exited thread's entries must not instantiate signatures")
	}
}

func TestInstrumentModeNoBookkeeping(t *testing.T) {
	e := newEnv(Config{Mode: ModeInstrument})
	sa := e.stk("lock", "fa")
	sb := e.stk("lock", "fb")
	e.addSig(2, sa, sb)
	t1 := e.c.NewThread(1, 1, "T1")
	t2 := e.c.NewThread(2, 2, "T2")
	a := e.c.NewLock()
	b := e.c.NewLock()
	e.c.Request(t1, b, sb)
	e.c.Acquired(t1, b)
	if dec := e.c.Request(t2, a, sa); !dec.Go {
		t.Fatal("instrument-only mode must never yield")
	}
	// Events still flow, through the thread's batch buffer.
	if len(e.published()) == 0 {
		t.Fatal("instrument mode must emit events")
	}
}

func TestDataStructsModeNoMatching(t *testing.T) {
	e := newEnv(Config{Mode: ModeDataStructs})
	sa := e.stk("lock", "fa")
	sb := e.stk("lock", "fb")
	e.addSig(2, sa, sb)
	t1 := e.c.NewThread(1, 1, "T1")
	t2 := e.c.NewThread(2, 2, "T2")
	a := e.c.NewLock()
	b := e.c.NewLock()
	e.c.Request(t1, b, sb)
	e.c.Acquired(t1, b)
	if dec := e.c.Request(t2, a, sa); !dec.Go {
		t.Fatal("data-structures mode must never yield")
	}
	if got := e.c.HolderOf(b); got != 1 {
		t.Error("data-structures mode must still track holders")
	}
}

func TestThreeThreadSignatureInstance(t *testing.T) {
	e := newEnv(Config{Mode: ModeFull})
	s1 := e.stk("lock", "f1")
	s2 := e.stk("lock", "f2")
	s3 := e.stk("lock", "f3")
	e.addSig(2, s1, s2, s3)

	t1 := e.c.NewThread(1, 1, "T1")
	t2 := e.c.NewThread(2, 2, "T2")
	t3 := e.c.NewThread(3, 3, "T3")
	a := e.c.NewLock()
	b := e.c.NewLock()
	cL := e.c.NewLock()

	e.c.Request(t1, a, s1)
	e.c.Acquired(t1, a)
	e.c.Request(t2, b, s2)
	e.c.Acquired(t2, b)
	// Two of three present: requesting with s3 completes the instance.
	dec := e.c.Request(t3, cL, s3)
	if dec.Go {
		t.Fatal("three-stack signature must be instantiated")
	}
	if len(dec.Causes) != 2 {
		t.Errorf("causes = %d, want 2", len(dec.Causes))
	}
}

func TestMultisetSignatureNeedsTwoThreadsSameStack(t *testing.T) {
	// Signature {S, S}: two threads with the SAME stack (§5.3's reason
	// for multisets).
	e := newEnv(Config{Mode: ModeFull})
	s := e.stk("lock", "shared")
	e.addSig(2, s, s)

	t1 := e.c.NewThread(1, 1, "T1")
	t2 := e.c.NewThread(2, 2, "T2")
	a := e.c.NewLock()
	b := e.c.NewLock()

	if dec := e.c.Request(t1, a, s); !dec.Go {
		t.Fatal("first thread must GO (instance needs two)")
	}
	e.c.Acquired(t1, a)
	if dec := e.c.Request(t2, b, s); dec.Go {
		t.Fatal("second thread with same stack must yield")
	}
}

func TestNewSignatureAppliesWithoutRestart(t *testing.T) {
	// §8: histories can be reloaded at runtime; the match index must
	// pick up new signatures.
	e := newEnv(Config{Mode: ModeFull})
	s13 := e.stk("lock", "update:s3", "main:s1")
	s23 := e.stk("lock", "update:s3", "main:s2")

	tk := e.c.NewThread(1, 1, "Tk")
	tl := e.c.NewThread(2, 2, "Tl")
	a := e.c.NewLock()
	b := e.c.NewLock()

	e.c.Request(tk, b, s23)
	e.c.Acquired(tk, b)
	if dec := e.c.Request(tl, a, s13); !dec.Go {
		t.Fatal("no signature yet: GO")
	}
	e.c.Cancel(tl, a)

	e.addSig(3, s13, s23) // "patch" arrives
	if dec := e.c.Request(tl, a, s13); dec.Go {
		t.Fatal("new signature must take effect immediately")
	}
}

func TestProbeDepthCountsFalsePositives(t *testing.T) {
	e := newEnv(Config{Mode: ModeFull, ProbeDepth: 3})
	// Signature at depth 2, built from stacks that differ at frame 3
	// from the runtime stacks: every depth-2 match is a probe FP.
	sigA := e.stk("lock", "update", "callerX")
	sigB := e.stk("lock", "update2", "callerY")
	e.addSig(2, sigA, sigB)

	runA := e.stk("lock", "update", "callerZ")
	runB := e.stk("lock", "update2", "callerW")

	t1 := e.c.NewThread(1, 1, "T1")
	t2 := e.c.NewThread(2, 2, "T2")
	a := e.c.NewLock()
	b := e.c.NewLock()

	e.c.Request(t1, b, runB)
	e.c.Acquired(t1, b)
	if dec := e.c.Request(t2, a, runA); dec.Go {
		t.Fatal("expected yield")
	}
	if e.c.Stats().ProbeFPs.Load() != 1 {
		t.Errorf("ProbeFPs = %d, want 1", e.c.Stats().ProbeFPs.Load())
	}
}

func TestRecordOutcomeUpdatesCounters(t *testing.T) {
	e, _, _, s13, dec := setupPaperExample(t, Config{Mode: ModeFull})
	if dec.Go {
		t.Fatal("precondition: yield")
	}
	recs := []BindingRecord{{TID: 1, LID: dec.Causes[0].L.ID, Stack: dec.Causes[0].St, SigIdx: dec.Causes[0].SigIdx}}
	e.c.RecordOutcome(dec.Sig.ID, dec.Depth, true, s13, dec.YielderIdx, recs)
	if dec.Sig.FPCount != 1 {
		t.Errorf("FPCount = %d", dec.Sig.FPCount)
	}
	e.c.RecordOutcome(dec.Sig.ID, dec.Depth, false, s13, dec.YielderIdx, recs)
	if dec.Sig.TPCount != 1 {
		t.Errorf("TPCount = %d", dec.Sig.TPCount)
	}
	e.c.RecordOutcome("missing", 1, true, nil, 0, nil) // must not panic
}

// TestCoverAgainstBruteForce cross-checks the backtracking exact-cover
// matcher against exhaustive enumeration on random instances.
func TestCoverAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 300; iter++ {
		e := newEnv(Config{Mode: ModeFull})
		// Random signature of 2..3 stacks drawn from a pool of 4.
		pool := []*stack.Interned{
			e.stk("lock", "p0"), e.stk("lock", "p1"),
			e.stk("lock", "p2"), e.stk("lock", "p3"),
		}
		n := 2 + rng.Intn(2)
		sigStacks := make([]*stack.Interned, n)
		for i := range sigStacks {
			sigStacks[i] = pool[rng.Intn(len(pool))]
		}
		e.addSig(2, sigStacks...)

		// Random population of holders.
		const T, L = 4, 4
		threads := make([]*ThreadState, T)
		locks := make([]*LockState, L)
		for i := range threads {
			threads[i] = e.c.NewThread(int32(i+1), i+1, "t")
		}
		for i := range locks {
			locks[i] = e.c.NewLock()
		}
		var pop []holding
		lockTaken := map[int]bool{}
		threadBusy := map[int]bool{}
		for k := 0; k < 3; k++ {
			ti, li := rng.Intn(T), rng.Intn(L)
			if lockTaken[li] || threadBusy[ti] {
				continue
			}
			lockTaken[li], threadBusy[ti] = true, true
			st := pool[rng.Intn(len(pool))]
			pop = append(pop, holding{ti, li, st})
			if dec := e.c.Request(threads[ti], locks[li], st); dec.Go {
				e.c.Acquired(threads[ti], locks[li])
			} else {
				// Population itself triggered a yield: roll back.
				lockTaken[li], threadBusy[ti] = false, false
				pop = pop[:len(pop)-1]
			}
		}

		// The requester: a fresh thread + fresh lock.
		reqT := e.c.NewThread(99, T+1, "req")
		reqL := e.c.NewLock()
		reqS := pool[rng.Intn(len(pool))]
		dec := e.c.Request(reqT, reqL, reqS)

		want := bruteForceCover(sigStacks, reqS, pop, pool)
		if dec.Go == want {
			t.Fatalf("iter %d: matcher says go=%v, brute force instance=%v\nsig=%v pop=%v req=%v",
				iter, dec.Go, want, names(sigStacks), pop, reqS.S[1].Func)
		}
	}
}

func names(ss []*stack.Interned) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.S[1].Func
	}
	return out
}

type holding struct {
	t  int
	l  int
	st *stack.Interned
}

// bruteForceCover enumerates all assignments of the requester + holders to
// signature positions.
func bruteForceCover(sig []*stack.Interned, reqS *stack.Interned, pop []holding, pool []*stack.Interned) bool {
	n := len(sig)
	// The requester must take some position matching reqS; remaining
	// positions filled by distinct pop entries (distinct threads/locks
	// guaranteed by construction).
	var rec func(pos int, usedPop map[int]bool, reqUsed bool) bool
	rec = func(pos int, usedPop map[int]bool, reqUsed bool) bool {
		if pos == n {
			return reqUsed
		}
		// Option 1: requester covers pos.
		if !reqUsed && reqS.S.MatchesAtDepth(sig[pos].S, 2) {
			if rec(pos+1, usedPop, true) {
				return true
			}
		}
		// Option 2: some unused pop entry covers pos.
		for i, p := range pop {
			if usedPop[i] {
				continue
			}
			if p.st.S.MatchesAtDepth(sig[pos].S, 2) {
				usedPop[i] = true
				if rec(pos+1, usedPop, reqUsed) {
					return true
				}
				delete(usedPop, i)
			}
		}
		return false
	}
	return rec(0, map[int]bool{}, false)
}
