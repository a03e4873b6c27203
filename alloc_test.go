// alloc_test.go pins the allocation budget of the lock paths. The
// uncontended fast tier is the product's hot path and must stay at zero
// allocations per operation (amortized: the per-thread event buffer
// publishes one pooled carrier to the monitor queue every EventBatch
// operations, so the per-op average stays well under one). The guarded
// tier symbolizes stacks per operation when the fast path is disabled;
// its budget is bounded, not zero.
//
// testing.AllocsPerRun counts process-wide mallocs, so the runtimes here
// are configured with an effectively-idle monitor (huge Tau) and pruning
// off, leaving the lock path as the only allocator.
package dimmunix_test

import (
	"context"
	"testing"
	"time"

	"dimmunix"
	"dimmunix/internal/core"
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

// TestFastPathLockUnlockZeroAllocs: uncontended fast-tier Mutex
// Lock/Unlock allocates nothing per operation.
func TestFastPathLockUnlockZeroAllocs(t *testing.T) {
	rt := allocRT(t, dimmunix.Config{Mode: dimmunix.ModeFull})
	th := rt.RegisterThread("alloc")
	defer th.Close()
	m := rt.NewMutex()
	// Warm the per-goroutine classification table, the PC cache, the
	// interner, and the thread's first event-buffer slab.
	for i := 0; i < 200; i++ {
		if err := m.LockT(th); err != nil {
			t.Fatal(err)
		}
		_ = m.UnlockT(th)
	}
	avg := testing.AllocsPerRun(2000, func() {
		if err := m.LockT(th); err != nil {
			t.Fatal(err)
		}
		_ = m.UnlockT(th)
	})
	if avg >= 1 {
		t.Fatalf("fast-tier Lock/Unlock allocates: %.3f allocs/op (want < 1, i.e. 0 at -benchmem resolution)", avg)
	}
	if rt.Stats().FastGos == 0 {
		t.Fatal("measurement never took the fast tier")
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

// TestGuardedPathAllocBudget bounds the guarded tier: with the fast path
// disabled every operation runs the full §5.4 protocol and — without the
// PC cache — symbolizes its stack. That costs allocations by design; this
// test only pins the budget so regressions surface.
func TestGuardedPathAllocBudget(t *testing.T) {
	rt := allocRTLab(t, dimmunix.Config{Mode: dimmunix.ModeFull}, core.Lab{DisableFastPath: true})
	th := rt.RegisterThread("alloc-guarded")
	defer th.Close()
	m := rt.NewMutex()
	for i := 0; i < 200; i++ {
		if err := m.LockT(th); err != nil {
			t.Fatal(err)
		}
		_ = m.UnlockT(th)
	}
	avg := testing.AllocsPerRun(1000, func() {
		if err := m.LockT(th); err != nil {
			t.Fatal(err)
		}
		_ = m.UnlockT(th)
	})
	const budget = 12
	if avg > budget {
		t.Fatalf("guarded Lock/Unlock allocates %.1f allocs/op (budget %d)", avg, budget)
	}
}
