// bench_test.go provides testing.B counterparts for every table and
// figure of the paper's evaluation. The wall-clock sweeps that regenerate
// the actual rows/series live in cmd/dimmunix-bench (internal/bench);
// these benchmarks measure the per-operation costs underlying them.
package dimmunix_test

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"dimmunix"
	"dimmunix/internal/bench/gatelock"
	"dimmunix/internal/core"
	"dimmunix/internal/simapp"
	"dimmunix/internal/workload"
)

func newRT(b *testing.B, cfg dimmunix.Config) *dimmunix.Runtime {
	b.Helper()
	return newRTLab(b, cfg, core.Lab{})
}

// newRTLab is newRT with the module-internal lab knobs set.
func newRTLab(b *testing.B, cfg dimmunix.Config, lab core.Lab) *dimmunix.Runtime {
	b.Helper()
	if cfg.Tau == 0 {
		cfg.Tau = 50 * time.Millisecond
	}
	var rt *dimmunix.Runtime
	if cfg.OnDeadlock == nil {
		cfg.OnDeadlock = func(info dimmunix.DeadlockInfo) {
			rt.AbortThreads(info.ThreadIDs...)
		}
	}
	rt = core.MustNewLab(cfg, lab)
	b.Cleanup(func() { rt.Stop() })
	return rt
}

// withHistory populates rt with h synthesized two-stack signatures drawn
// from a short workload warmup.
func withHistory(b testing.TB, rt *dimmunix.Runtime, r *workload.Runner, h, depth int) {
	b.Helper()
	r.Warmup(100 * time.Millisecond)
	hist, err := workload.SynthesizeHistory(rt.CapturedStacks(), h, 2, depth, 7)
	if err != nil {
		b.Fatal(err)
	}
	rt.History().Merge(hist)
}

// lockOpBench measures single-threaded lock+unlock through a runtime in
// the given configuration with h signatures in history.
func lockOpBench(b *testing.B, cfg dimmunix.Config, h int) {
	rt := newRT(b, cfg)
	r := workload.NewRunner(rt, workload.Config{Threads: 2, Locks: 8})
	if h > 0 && cfg.Mode != dimmunix.ModeOff {
		withHistory(b, rt, r, h, 4)
	}
	th := rt.RegisterThread("bench")
	defer th.Close()
	m := rt.NewMutex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.LockT(th); err != nil {
			b.Fatal(err)
		}
		_ = m.UnlockT(th)
	}
}

// --- Table 1: immunized trial cost per bug -------------------------------

func BenchmarkTable1_MySQLImmunizedTrial(b *testing.B) {
	rt := newRT(b, dimmunix.Config{Tau: 2 * time.Millisecond})
	bug := simapp.Bugs()[0] // MySQL 37080
	app := bug.New(rt)      // dimmunix.Runtime is an alias of core.Runtime
	// Contract the pattern once.
	for i := 0; i < 6; i++ {
		errs := app.Exploit(30 * time.Millisecond)
		if rt.History().Len() >= 1 && simapp.Clean(errs) {
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if errs := app.Exploit(time.Millisecond); !simapp.Clean(errs) {
			b.Fatal("immunized trial deadlocked")
		}
	}
}

// --- Table 2: immunized invitation cost ----------------------------------

func BenchmarkTable2_VectorImmunizedRun(b *testing.B) {
	rt := newRT(b, dimmunix.Config{Tau: 2 * time.Millisecond, MatchDepth: 2})
	inv := collectionsVectorRunner(rt)
	inv(30 * time.Millisecond) // first exposure: deadlock + archive
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inv(0)
	}
}

// collectionsVectorRunner avoids importing the collections package's
// internals here: a local two-vector addAll exploit in the same shape.
func collectionsVectorRunner(rt *dimmunix.Runtime) func(hold time.Duration) {
	a, bm := rt.NewMutexKind(dimmunix.Recursive), rt.NewMutexKind(dimmunix.Recursive)
	addAll := func(t *dimmunix.Thread, first, second *dimmunix.CoreMutex, hold time.Duration) {
		if first.LockT(t) != nil {
			return
		}
		time.Sleep(hold)
		if second.LockT(t) == nil {
			_ = second.UnlockT(t)
		}
		_ = first.UnlockT(t)
	}
	return func(hold time.Duration) {
		done := make(chan struct{}, 2)
		go func() {
			t := rt.RegisterThread("v1")
			defer t.Close()
			addAll(t, a, bm, hold)
			done <- struct{}{}
		}()
		go func() {
			t := rt.RegisterThread("v2")
			defer t.Close()
			addAll(t, bm, a, hold)
			done <- struct{}{}
		}()
		<-done
		<-done
	}
}

// --- Fig 4: end-to-end request cost (server simulator) -------------------

func BenchmarkFig4_RequestBaseline(b *testing.B) { fig4Request(b, dimmunix.ModeOff, 0) }
func BenchmarkFig4_RequestDimmunix32(b *testing.B) {
	fig4Request(b, dimmunix.ModeFull, 32)
}
func BenchmarkFig4_RequestDimmunix128(b *testing.B) {
	fig4Request(b, dimmunix.ModeFull, 128)
}

func fig4Request(b *testing.B, mode dimmunix.Mode, h int) {
	rt := newRT(b, dimmunix.Config{Mode: mode})
	// A single-worker slice of the server loop: 6 ops per request over
	// striped locks.
	locks := make([]*dimmunix.CoreMutex, 16)
	for i := range locks {
		locks[i] = rt.NewMutex()
	}
	th := rt.RegisterThread("srv")
	defer th.Close()
	if h > 0 && mode != dimmunix.ModeOff {
		r := workload.NewRunner(rt, workload.Config{Threads: 2, Locks: 8})
		withHistory(b, rt, r, h, 4)
	}
	var x atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for op := 0; op < 6; op++ {
			m := locks[(i*7+op*3)%len(locks)]
			if m.LockT(th) == nil {
				x.Add(1)
				_ = m.UnlockT(th)
			}
		}
	}
}

// --- Fig 5: lock op cost, baseline vs Dimmunix ---------------------------

func BenchmarkFig5_LockOpBaseline(b *testing.B) {
	lockOpBench(b, dimmunix.Config{Mode: dimmunix.ModeOff}, 0)
}

func BenchmarkFig5_LockOpDimmunix64Sigs(b *testing.B) {
	lockOpBench(b, dimmunix.Config{}, 64)
}

// --- Fig 6: lock op cost with in-critical-section work -------------------

func BenchmarkFig6_DinSweep(b *testing.B) {
	for _, din := range []time.Duration{0, time.Microsecond, 10 * time.Microsecond} {
		b.Run(fmt.Sprintf("din=%s", din), func(b *testing.B) {
			rt := newRT(b, dimmunix.Config{})
			r := workload.NewRunner(rt, workload.Config{Threads: 2, Locks: 8})
			withHistory(b, rt, r, 64, 4)
			th := rt.RegisterThread("bench")
			defer th.Close()
			m := rt.NewMutex()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.LockT(th)
				spinFor(din)
				_ = m.UnlockT(th)
			}
		})
	}
}

func spinFor(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
}

// --- Fig 7: lock op cost vs history size ---------------------------------

func BenchmarkFig7_HistorySize(b *testing.B) {
	for _, h := range []int{2, 64, 256} {
		b.Run(fmt.Sprintf("sigs=%d", h), func(b *testing.B) {
			lockOpBench(b, dimmunix.Config{}, h)
		})
	}
}

func BenchmarkFig7_MatchDepth(b *testing.B) {
	for _, d := range []int{4, 8} {
		b.Run(fmt.Sprintf("depth=%d", d), func(b *testing.B) {
			rt := newRT(b, dimmunix.Config{MatchDepth: d, StackDepth: 12})
			r := workload.NewRunner(rt, workload.Config{Threads: 2, Locks: 8})
			withHistory(b, rt, r, 64, d)
			th := rt.RegisterThread("bench")
			defer th.Close()
			m := rt.NewMutex()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.LockT(th)
				_ = m.UnlockT(th)
			}
		})
	}
}

// --- Fig 8: overhead breakdown -------------------------------------------

func BenchmarkFig8_Instrumentation(b *testing.B) {
	lockOpBench(b, dimmunix.Config{Mode: dimmunix.ModeInstrument}, 0)
}

func BenchmarkFig8_DataStructures(b *testing.B) {
	lockOpBench(b, dimmunix.Config{Mode: dimmunix.ModeDataStructs}, 0)
}

func BenchmarkFig8_FullAvoidance(b *testing.B) {
	lockOpBench(b, dimmunix.Config{}, 64)
}

// --- Fig 9: matching depth + gate locks ----------------------------------

func BenchmarkFig9_MatchDepth1(b *testing.B)  { fig9Depth(b, 1) }
func BenchmarkFig9_MatchDepth10(b *testing.B) { fig9Depth(b, 10) }

func fig9Depth(b *testing.B, depth int) {
	rt := newRTLab(b, dimmunix.Config{MatchDepth: depth, StackDepth: 12, MaxYield: time.Millisecond}, core.Lab{ProbeDepth: 10})
	r := workload.NewRunner(rt, workload.Config{Threads: 2, Locks: 8})
	withHistory(b, rt, r, 64, depth)
	th := rt.RegisterThread("bench")
	defer th.Close()
	m := rt.NewMutex()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.LockT(th)
		_ = m.UnlockT(th)
	}
}

func BenchmarkFig9_GateLockEnterExit(b *testing.B) {
	mgr := gatelock.NewManager()
	site := gatelock.Site{Func: "w.lockOp", File: "w.go", Line: 1}
	mgr.AddDeadlock([]gatelock.Site{site, {Func: "w.lockOp", File: "w.go", Line: 2}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok := mgr.Enter(site)
		mgr.Exit(tok)
	}
}

// --- Ablations -----------------------------------------------------------

func BenchmarkAblationCalibrationOn(b *testing.B) {
	lockOpBench(b, dimmunix.Config{Calibrate: true}, 64)
}
