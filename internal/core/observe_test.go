package core

import (
	"context"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dimmunix/internal/histstore"
	"dimmunix/internal/obs"
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

// safeLock is a lock call site guaranteed to stay off every signature:
// its innermost frame appears in no archived stack, so requests through
// it classify safe and take the lock-free tier.
//
//go:noinline
func safeLock(t *Thread, m *Mutex) error { return m.LockT(t) }

// TestTierSplitInvariantUnderChurn drives mixed fast-tier and guarded
// traffic from many goroutines (run it with -race) and asserts the
// differential invariant: every non-reentrant acquisition lands in
// exactly one tier, so FastAcquired + GuardedAcquired == Acquired.
func TestTierSplitInvariantUnderChurn(t *testing.T) {
	cfg := testConfig()
	// Depth 1: the signature indexes by innermost frame, so every lockA
	// caller classifies dangerous. (At depth >= 2 the per-depth danger
	// index would keep this test's lockA traffic — a different caller
	// than the seeded stack — on the fast tier.)
	cfg.MatchDepth = 1
	rt := MustNew(cfg)
	defer rt.Stop()

	// Seed a signature so the danger index is non-empty: traffic through
	// lockA/lockB classifies dangerous (guarded tier), safeLock traffic
	// classifies safe (fast tier).
	a, b := rt.NewMutex(), rt.NewMutex()
	seedSignature(t, rt, a, b)

	const workers = 8
	const iters = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := rt.RegisterThread("churn")
			defer th.Close()
			fast := rt.NewMutex()
			guarded := rt.NewMutex()
			for i := 0; i < iters; i++ {
				if err := safeLock(th, fast); err != nil {
					t.Errorf("fast lock: %v", err)
					return
				}
				_ = fast.UnlockT(th)
				// lockA's innermost frame is in the seeded signature, so
				// this request always takes the guarded §5.4 protocol.
				if err := lockA(th, guarded); err != nil {
					t.Errorf("guarded lock: %v", err)
					return
				}
				_ = guarded.UnlockT(th)
			}
		}(w)
	}
	wg.Wait()

	s := rt.Stats()
	if s.FastAcquired+s.GuardedAcquired != s.Acquired {
		t.Fatalf("tier split broken: fast=%d + guarded=%d != acquired=%d",
			s.FastAcquired, s.GuardedAcquired, s.Acquired)
	}
	if s.FastAcquired < workers*iters {
		t.Errorf("fast tier undercounted: %d < %d", s.FastAcquired, workers*iters)
	}
	if s.GuardedAcquired < workers*iters {
		t.Errorf("guarded tier undercounted: %d < %d", s.GuardedAcquired, workers*iters)
	}
}

// TestYieldEventsMatchCounter seeds immunity, drives repeated avoided
// reruns, and asserts the AvoidanceYield event stream agrees with the
// yield counter and its per-signature split.
func TestYieldEventsMatchCounter(t *testing.T) {
	cfg := testConfig()
	cfg.MatchDepth = 2
	rt := MustNewLab(cfg, Lab{EventBuffer: 4096}) // no drops: the counts must match exactly
	defer rt.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := rt.Subscribe(ctx)
	var yieldEvents atomic.Uint64
	perSig := make(map[string]uint64)
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			if y, ok := ev.(obs.AvoidanceYield); ok {
				yieldEvents.Add(1)
				mu.Lock()
				perSig[y.SigID]++
				mu.Unlock()
			}
		}
	}()

	a, b := rt.NewMutex(), rt.NewMutex()
	seedSignature(t, rt, a, b)
	for i := 0; i < 5; i++ {
		err1, err2 := forceDeadlock(rt, a, b, 5*time.Millisecond)
		if err1 != nil || err2 != nil {
			t.Fatalf("immunized run %d failed: %v / %v", i, err1, err2)
		}
	}

	s := rt.Stats()
	if s.Yields == 0 {
		t.Fatal("expected yields")
	}
	waitFor(t, "yield event delivery", func() bool {
		return yieldEvents.Load() == s.Yields
	})
	var total uint64
	for id, n := range s.YieldsBySignature {
		total += n
		mu.Lock()
		got := perSig[id]
		mu.Unlock()
		if got != n {
			t.Errorf("per-sig yield mismatch for %s: events=%d counter=%d", id, got, n)
		}
	}
	if total != s.Yields {
		t.Errorf("per-signature yields sum %d != total %d", total, s.Yields)
	}
	cancel()
	<-done
}

// TestStalledObserverNeverBlocksLockers registers an observer that
// blocks forever with a tiny event ring, then drives yield-heavy
// traffic: every locker must complete (the dispatcher drops oldest
// instead of exerting backpressure) and the drop counter must grow.
func TestStalledObserverNeverBlocksLockers(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	cfg := testConfig()
	cfg.MatchDepth = 2
	cfg.Observers = []func(obs.Event){func(obs.Event) { <-block }}
	rt := MustNewLab(cfg, Lab{EventBuffer: 2})
	defer rt.Stop()

	a, b := rt.NewMutex(), rt.NewMutex()
	seedSignature(t, rt, a, b)

	doneRuns := make(chan struct{})
	go func() {
		defer close(doneRuns)
		for i := 0; i < 20; i++ {
			err1, err2 := forceDeadlock(rt, a, b, time.Millisecond)
			if err1 != nil || err2 != nil {
				t.Errorf("run %d failed behind stalled observer: %v / %v", i, err1, err2)
				return
			}
		}
	}()
	select {
	case <-doneRuns:
	case <-time.After(30 * time.Second):
		t.Fatal("lock traffic stalled behind a blocked observer")
	}
	waitFor(t, "event drops", func() bool { return rt.Stats().EventsDropped > 0 })
	// Stop must not wait for the stalled observer either.
	start := time.Now()
	if err := rt.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Stop took %v behind a stalled observer", elapsed)
	}
}

// TestDeadlockAndRecoveryEvents asserts the monitor-side event types:
// one detected deadlock produces SignatureArchived + DeadlockDetected +
// RecoveryAborted (abort recovery armed) + a HistoryChanged "add".
func TestDeadlockAndRecoveryEvents(t *testing.T) {
	cfg := testConfig()
	cfg.MatchDepth = 2
	cfg.RecoverAborts = true
	rt := MustNew(cfg)
	defer rt.Stop()

	events := rt.Subscribe(context.Background())
	var archived, detected, recovered, histAdd atomic.Uint64
	go func() {
		for ev := range events {
			switch e := ev.(type) {
			case obs.SignatureArchived:
				archived.Add(1)
			case obs.DeadlockDetected:
				if e.New {
					detected.Add(1)
				}
			case obs.RecoveryAborted:
				recovered.Add(1)
			case obs.HistoryChanged:
				if e.Op == "add" {
					histAdd.Add(1)
				}
			}
		}
	}()

	a, b := rt.NewMutex(), rt.NewMutex()
	forceDeadlock(rt, a, b, holdTime)
	waitFor(t, "event cascade", func() bool {
		return archived.Load() >= 1 && detected.Load() >= 1 &&
			recovered.Load() >= 1 && histAdd.Load() >= 1
	})
	s := rt.Stats()
	if s.Recoveries == 0 {
		t.Error("Recoveries counter did not advance")
	}
	if s.DeadlocksDetected == 0 || s.SignaturesSaved == 0 {
		t.Errorf("monitor counters missing from snapshot: %+v", s)
	}
	if s.HistoryEpoch != rt.History().Danger().Epoch() {
		t.Errorf("HistoryEpoch = %d, want %d", s.HistoryEpoch, rt.History().Danger().Epoch())
	}
}

// TestSignatureDisabledEvent covers the §5.7 disable flow through the
// event stream and the disable counter.
func TestSignatureDisabledEvent(t *testing.T) {
	cfg := testConfig()
	cfg.MatchDepth = 2
	rt := MustNew(cfg)
	defer rt.Stop()
	a, b := rt.NewMutex(), rt.NewMutex()
	seedSignature(t, rt, a, b)

	events := rt.Subscribe(context.Background())
	var disabledID atomic.Value
	go func() {
		for ev := range events {
			if e, ok := ev.(obs.SignatureDisabled); ok && e.Disabled {
				disabledID.Store(e.SigID)
			}
		}
	}()

	sig := rt.History().Snapshot()[0]
	if !rt.History().SetDisabled(sig.ID, true) {
		t.Fatal("SetDisabled failed")
	}
	waitFor(t, "disable event", func() bool {
		id, _ := disabledID.Load().(string)
		return id == sig.ID
	})
	if rt.Stats().SignatureDisables != 1 {
		t.Errorf("SignatureDisables = %d, want 1", rt.Stats().SignatureDisables)
	}
}

// TestSyncStatsAndRoundEvents asserts PR 4's sync counters surface
// through Stats() and that every round publishes a SyncRoundDone event.
func TestSyncStatsAndRoundEvents(t *testing.T) {
	dir := t.TempDir()
	store := histstore.NewFileStore(filepath.Join(dir, "hist.json"))
	cfg := testConfig()
	cfg.HistoryStore = store
	cfg.SyncInterval = -1 // manual rounds only: deterministic counts
	rt := MustNew(cfg)
	defer rt.Stop()

	events := rt.Subscribe(context.Background())
	var rounds atomic.Uint64
	var sawPush atomic.Bool
	go func() {
		for ev := range events {
			if e, ok := ev.(obs.SyncRoundDone); ok {
				rounds.Add(1)
				if e.Pushed {
					sawPush.Store(true)
				}
				if e.Err != "" {
					t.Errorf("unexpected round error: %s", e.Err)
				}
			}
		}
	}()

	// Mutate the history so the round has something to push.
	rt.History().Add(signature.New(signature.Deadlock, []stack.Stack{
		{{Func: "x", File: "f.go", Line: 1}, {Func: "y", File: "f.go", Line: 2}},
		{{Func: "z", File: "g.go", Line: 3}, {Func: "w", File: "g.go", Line: 4}},
	}, 2))
	if err := rt.SyncNow(context.Background()); err != nil {
		t.Fatalf("SyncNow: %v", err)
	}
	s := rt.Stats()
	if s.SyncRounds == 0 {
		t.Fatal("SyncRounds did not advance")
	}
	if s.SyncPushes == 0 {
		t.Fatal("SyncPushes did not advance")
	}
	waitFor(t, "SyncRoundDone event", func() bool {
		return rounds.Load() >= s.SyncRounds && sawPush.Load()
	})
}

// TestHistorySummaryGuardedRead exercises the admin-slot guarded
// snapshot: per-signature counters and the per-runtime yield split.
func TestHistorySummaryGuardedRead(t *testing.T) {
	cfg := testConfig()
	cfg.MatchDepth = 2
	rt := MustNew(cfg)
	defer rt.Stop()
	a, b := rt.NewMutex(), rt.NewMutex()
	seedSignature(t, rt, a, b)
	if err1, err2 := forceDeadlock(rt, a, b, 5*time.Millisecond); err1 != nil || err2 != nil {
		t.Fatalf("immunized run failed: %v / %v", err1, err2)
	}

	sum := rt.HistorySummary()
	if len(sum.Signatures) != 1 {
		t.Fatalf("summary has %d signatures, want 1", len(sum.Signatures))
	}
	ss := sum.Signatures[0]
	if ss.Kind != "deadlock" || ss.Stacks != 2 {
		t.Errorf("summary entry = %+v", ss)
	}
	if ss.Yields == 0 || ss.AvoidCount == 0 {
		t.Errorf("yield accounting missing: yields=%d avoid=%d", ss.Yields, ss.AvoidCount)
	}
	if sum.Epoch != rt.History().Danger().Epoch() {
		t.Errorf("summary epoch %d != danger epoch %d", sum.Epoch, rt.History().Danger().Epoch())
	}
}

// TestThreadPruneCounter: prunes surface in the snapshot.
func TestThreadPruneCounter(t *testing.T) {
	cfg := testConfig()
	cfg.ThreadTTL = -1 // manual pruning only
	rt := MustNew(cfg)
	defer rt.Stop()
	m := rt.NewMutex()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = m.Lock() // implicit registration
			_ = m.Unlock()
		}()
	}
	wg.Wait()
	rt.PruneIdleThreads()
	rt.PruneIdleThreads()
	if rt.Stats().ThreadPrunes == 0 {
		t.Error("ThreadPrunes did not advance after pruning idle implicit threads")
	}
}
