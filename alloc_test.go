// alloc_test.go pins the allocation budget of the lock paths. The
// uncontended fast tier is the product's hot path and must stay at zero
// allocations per operation (amortized: the per-thread event buffer
// publishes one pooled carrier to the monitor queue every
// event.BatchSize records, so the per-op average stays well under one).
// So is the guarded tier's, as long as its probes find no live signature
// instance; a yield costs a fixed count.
//
// testing.AllocsPerRun counts process-wide mallocs, so the runtimes here
// are configured with an effectively-idle monitor (huge Tau) and pruning
// off, leaving the lock path as the only allocator.
package dimmunix_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"dimmunix"
	"dimmunix/internal/core"
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
	"dimmunix/internal/workload"
)

func allocRT(t *testing.T, cfg dimmunix.Config) *dimmunix.Runtime {
	t.Helper()
	return allocRTLab(t, cfg, core.Lab{})
}

func allocRTLab(t *testing.T, cfg dimmunix.Config, lab core.Lab) *dimmunix.Runtime {
	t.Helper()
	cfg.Tau = time.Hour // no monitor passes during measurement
	cfg.ThreadTTL = -1  // no pruner sweeps
	rt := core.MustNewLab(cfg, lab)
	t.Cleanup(func() { rt.Stop() })
	return rt
}

// withHistory populates rt with h synthesized two-stack signatures drawn
// from a short workload warmup.
func withHistory(t *testing.T, rt *dimmunix.Runtime, r *workload.Runner, h, depth int) {
	t.Helper()
	r.Warmup(100 * time.Millisecond)
	hist, err := workload.SynthesizeHistory(rt.CapturedStacks(), h, 2, depth, 7)
	if err != nil {
		t.Fatal(err)
	}
	rt.History().Merge(hist)
}

// allocSite runs one Lock/Unlock pair at the end of one of 4^depth call
// paths selected by path's base-4 digits, least significant innermost:
// every level is a distinct call line and the leaf a distinct lock line,
// so paths below 4^k differ within the innermost k frames — the ones a
// depth-bounded capture keys on — and share the levels above them.
//
//go:noinline
func allocSite(t *testing.T, path, depth int, m *dimmunix.CoreMutex, th *dimmunix.Thread) {
	digit := path >> (2 * (depth - 1)) & 3
	if depth > 1 {
		switch digit {
		case 0:
			allocSite(t, path, depth-1, m, th)
		case 1:
			allocSite(t, path, depth-1, m, th)
		case 2:
			allocSite(t, path, depth-1, m, th)
		default:
			allocSite(t, path, depth-1, m, th)
		}
		return
	}
	var err error
	switch digit {
	case 0:
		err = m.LockT(th)
	case 1:
		err = m.LockT(th)
	case 2:
		err = m.LockT(th)
	default:
		err = m.LockT(th)
	}
	if err != nil {
		t.Fatal(err)
	}
	_ = m.UnlockT(th)
}

// TestFastPathLockUnlockZeroAllocs: uncontended fast-tier Mutex
// Lock/Unlock allocates nothing per operation — on one call path, under a
// populated history whose signatures it matches none of, and round-robin
// from one thread over 256 call paths (the svc_sites shape: every
// operation is a call-site table hit on a different depth-bounded key).
func TestFastPathLockUnlockZeroAllocs(t *testing.T) {
	for _, row := range []struct {
		name        string
		sigs, paths int
	}{
		{"empty-history", 0, 1},
		{"32-signatures", 32, 1},
		{"32-signatures-256-paths", 32, 256},
	} {
		t.Run(row.name, func(t *testing.T) {
			rt := allocRT(t, dimmunix.Config{Mode: dimmunix.ModeFull})
			if row.sigs > 0 {
				r := workload.NewRunner(rt, workload.Config{Threads: 2, Locks: 8})
				withHistory(t, rt, r, row.sigs, 4)
			}
			th := rt.RegisterThread("alloc")
			defer th.Close()
			m := rt.NewMutex()
			next := 0
			// Twice as deep as the paths vary: a depth-bounded key stays
			// inside allocSite's frames, so it does not depend on who
			// calls pair.
			pair := func() {
				allocSite(t, next%row.paths, 8, m, th)
				next++
			}
			// Warm the call-site table, the interner and the thread's
			// first event-buffer slab: the first pair also settles the
			// capture bound, then one round visits every path.
			stacks := len(rt.CapturedStacks())
			for i := 0; i < 1+row.paths; i++ {
				pair()
			}
			if got := len(rt.CapturedStacks()) - stacks; got != row.paths {
				t.Fatalf("warm-up round captured %d distinct stacks, want %d", got, row.paths)
			}
			fast := rt.Stats().FastGos
			const runs = 2048
			if avg := testing.AllocsPerRun(runs, pair); avg >= 1 {
				t.Fatalf("fast-tier Lock/Unlock allocates: %.3f allocs/op (want < 1, i.e. 0 at -benchmem resolution)", avg)
			}
			if got := rt.Stats().FastGos - fast; got < runs {
				t.Fatalf("%d of %d measured operations took the fast tier", got, runs)
			}
		})
	}
}

// TestFastPathRWMutexReadZeroAllocs: uncontended fast-tier RWMutex
// RLock/RUnlock allocates nothing per operation.
func TestFastPathRWMutexReadZeroAllocs(t *testing.T) {
	rt := allocRT(t, dimmunix.Config{Mode: dimmunix.ModeFull})
	th := rt.RegisterThread("alloc-rw")
	defer th.Close()
	rw := rt.NewRWMutex()
	for i := 0; i < 200; i++ {
		if err := rw.RLockT(th); err != nil {
			t.Fatal(err)
		}
		_ = rw.RUnlockT(th)
	}
	avg := testing.AllocsPerRun(2000, func() {
		if err := rw.RLockT(th); err != nil {
			t.Fatal(err)
		}
		_ = rw.RUnlockT(th)
	})
	if avg >= 1 {
		t.Fatalf("fast-tier RLock/RUnlock allocates: %.3f allocs/op (want < 1)", avg)
	}
	if rt.Stats().FastGos == 0 {
		t.Fatal("measurement never took the fast tier")
	}
}

// TestFastPathTimedAndCtxZeroAllocs: a deadline or a context costs an
// uncontended fast-tier acquisition nothing — the pipeline arms its
// deadline timer only once it actually has to wait, for Mutex and
// RWMutex alike.
func TestFastPathTimedAndCtxZeroAllocs(t *testing.T) {
	rt := allocRT(t, dimmunix.Config{Mode: dimmunix.ModeFull})
	th := rt.RegisterThread("alloc-timed")
	defer th.Close()
	m, rw := rt.NewMutex(), rt.NewRWMutex()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows := []struct {
		name    string
		acquire func() error
		release func() error
	}{
		{"Mutex.LockTimeoutT", func() error { return m.LockTimeoutT(th, time.Minute) }, func() error { return m.UnlockT(th) }},
		{"Mutex.LockCtxT", func() error { return m.LockCtxT(th, ctx) }, func() error { return m.UnlockT(th) }},
		{"RWMutex.LockTimeoutT", func() error { return rw.LockTimeoutT(th, time.Minute) }, func() error { return rw.UnlockT(th) }},
		{"RWMutex.RLockTimeoutT", func() error { return rw.RLockTimeoutT(th, time.Minute) }, func() error { return rw.RUnlockT(th) }},
		{"RWMutex.LockCtxT", func() error { return rw.LockCtxT(th, ctx) }, func() error { return rw.UnlockT(th) }},
		{"RWMutex.RLockCtxT", func() error { return rw.RLockCtxT(th, ctx) }, func() error { return rw.RUnlockT(th) }},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			pair := func() {
				if err := r.acquire(); err != nil {
					t.Fatal(err)
				}
				if err := r.release(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 200; i++ {
				pair() // warm the tables, as above
			}
			before := rt.Stats().FastAcquired
			if avg := testing.AllocsPerRun(2000, pair); avg >= 1 {
				t.Fatalf("fast-tier %s allocates: %.3f allocs/op (want < 1)", r.name, avg)
			}
			if rt.Stats().FastAcquired == before {
				t.Fatal("measurement never took the fast tier")
			}
		})
	}
}

// TestGuardedPathAllocBudget pins the guarded tier's allocations. With
// the fast path disabled and an empty history, every operation runs the
// full §5.4 protocol but never probes a signature. On the drop-in
// surface, a call site a loaded history makes dangerous takes the
// guarded tier and probes its signatures on every acquisition: when no
// instance is live the probe allocates nothing, so the pair is as
// allocation-free as the fast tier; when one is, the TryLock yields, and
// the YIELD decision and its rollback cost a fixed count.
func TestGuardedPathAllocBudget(t *testing.T) {
	t.Run("fast-path-off/empty-history", func(t *testing.T) {
		rt := allocRTLab(t, dimmunix.Config{Mode: dimmunix.ModeFull}, core.Lab{DisableFastPath: true})
		th := rt.RegisterThread("alloc-guarded")
		defer th.Close()
		m := rt.NewMutex()
		pair := func() {
			if err := m.LockT(th); err != nil {
				t.Fatal(err)
			}
			_ = m.UnlockT(th)
		}
		for i := 0; i < 200; i++ {
			pair()
		}
		// The per-thread event buffer publishes one pooled carrier
		// every event.BatchSize records, so the average is below one.
		if avg := testing.AllocsPerRun(1000, pair); avg >= 1 {
			t.Fatalf("guarded Lock/Unlock allocates %.3f allocs/op (want < 1)", avg)
		}
	})

	t.Run("drop-in/probed-no-match", func(t *testing.T) {
		rt := allocDefault(t)
		var mu dimmunix.Mutex
		pair := func() { allocDangerousPair(&mu) }
		pair()
		// Four signatures pair the call site with stacks nobody has: it
		// is dangerous, and every acquisition probes all four in vain.
		site := allocCaptured(t, rt, "allocDangerousPair")
		for i := range 4 {
			nobody := stack.Stack{{Func: "nobody.lock", File: "nobody.go", Line: i + 1}}
			rt.History().Add(signature.New(signature.Deadlock, []stack.Stack{site, nobody}, 2))
		}
		for i := 0; i < 200; i++ {
			pair()
		}
		before := rt.Stats()
		const runs = 2048
		if avg := testing.AllocsPerRun(runs, pair); avg >= 1 {
			t.Fatalf("guarded Lock/Unlock with a probed history allocates %.3f allocs/op (want < 1)", avg)
		}
		after := rt.Stats()
		if got := after.GuardedAcquired - before.GuardedAcquired; got < runs {
			t.Fatalf("%d of %d measured operations took the guarded tier", got, runs)
		}
		if after.Yields != before.Yields {
			t.Fatal("a probe matched: the history was meant to have no live instance")
		}
	})

	t.Run("drop-in/yield", func(t *testing.T) {
		rt := allocDefault(t)
		var a, b dimmunix.Mutex
		// Learn both call sites, then archive the pattern "b tried here
		// while a is held there", and hold a there.
		allocHold(&a)()
		try := func() bool { return allocTryPair(&b) }
		try()
		rt.History().Add(signature.New(signature.Deadlock, []stack.Stack{
			allocCaptured(t, rt, "allocTryPair"), allocCaptured(t, rt, "allocHold.func1"),
		}, 2))
		defer allocHold(&a)()
		op := func() {
			if try() {
				t.Fatal("TryLock went ahead into a live signature instance")
			}
		}
		for i := 0; i < 200; i++ {
			op()
		}
		before := rt.Stats().Yields
		const runs = 1000
		avg := testing.AllocsPerRun(runs, op)
		if got := rt.Stats().Yields - before; got < runs {
			t.Fatalf("%d of %d measured TryLocks yielded", got, runs)
		}
		// The decision's Causes and the Yield event's causes (one slice
		// each); three queue nodes (the Request's batch carrier, the
		// Yield and the Cancel event); the record carrier, a slice and
		// its pointer, which an idle monitor never hands back to the
		// pool.
		const budget = 7
		if avg > budget {
			t.Fatalf("a yielding TryLock allocates %.0f allocs/op (budget %d)", avg, budget)
		}
	})
}

// allocDefault initializes the default runtime for allocation counting:
// an idle monitor and no pruner, as allocRT does.
func allocDefault(t *testing.T) *dimmunix.Runtime {
	t.Helper()
	initDefault(t, dimmunix.WithTau(time.Hour), dimmunix.WithThreadTTL(-1))
	return dimmunix.Default()
}

// allocCaptured returns the stack rt captured at the lock call of fn, a
// function of this file.
func allocCaptured(t *testing.T, rt *dimmunix.Runtime, fn string) stack.Stack {
	t.Helper()
	for _, s := range rt.CapturedStacks() {
		if len(s) > 0 && s[0].File == "alloc_test.go" && strings.HasSuffix(s[0].Func, "."+fn) {
			return s
		}
	}
	t.Fatalf("no stack captured at %s", fn)
	return nil
}

//go:noinline
func allocDangerousPair(mu *dimmunix.Mutex) {
	mu.Lock()
	mu.Unlock()
}

//go:noinline
func allocTryPair(mu *dimmunix.Mutex) bool {
	if !mu.TryLock() {
		return false
	}
	mu.Unlock()
	return true
}

// allocHold locks mu on a goroutine of its own and holds it until the
// returned function is called.
func allocHold(mu *dimmunix.Mutex) (release func()) {
	held, done := make(chan struct{}), make(chan struct{})
	go func() {
		mu.Lock()
		close(held)
		<-done
		mu.Unlock()
	}()
	<-held
	return func() { close(done) }
}
