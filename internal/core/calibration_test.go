package core

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dimmunix/internal/monitor"
)

// TestCalibrationLadderAdvancesEndToEnd drives repeated avoided
// encounters of one pattern and checks that the §5.5 depth ladder
// advances using the retrospective FP verdicts flowing back from the
// monitor.
func TestCalibrationLadderAdvancesEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.MatchDepth = 2
	cfg.Calibrate = true
	cfg.MaxYield = 100 * time.Millisecond
	var rt *Runtime
	cfg.OnDeadlock = func(info monitor.DeadlockInfo) { rt.AbortThreads(info.ThreadIDs...) }
	rt = MustNewLab(cfg, Lab{CalibMaxDepth: 4, CalibNA: 2})
	defer rt.Stop()

	a, b := rt.NewMutex(), rt.NewMutex()
	seedSignature(t, rt, a, b)
	sig := rt.History().Snapshot()[0]
	if !sig.Calib.Active() {
		t.Fatal("new signature must have an armed ladder with Calibrate on")
	}

	// Drive avoided encounters: Tk holds b (the cause), Tl's lockA is
	// avoided; each encounter is one ladder observation.
	tk := rt.RegisterThread("Tk")
	defer tk.Close()
	if err := lockB(tk, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		tl := rt.RegisterThread("Tl")
		cfgDone := make(chan error, 1)
		go func() { cfgDone <- lockA(tl, a) }()
		select {
		case err := <-cfgDone:
			// The max-yield bound eventually forces GO (Tk never
			// releases b), which still counts as an avoidance.
			if err != nil && !errors.Is(err, ErrDeadlockRecovered) {
				t.Fatalf("encounter %d: %v", i, err)
			}
			if err == nil {
				_ = a.UnlockT(tl)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("encounter hung")
		}
		tl.Close()
	}
	_ = b.UnlockT(tk)

	// Rung 1 matched this test's call path (innermost frame only) and
	// collected its NA=2 avoidances; the ladder then advanced to rung 2,
	// where the deeper suffix no longer matches this call site — so the
	// later encounters were not avoided. That asymmetry IS the ladder
	// doing its job: deeper rungs are more precise.
	if sig.Calib.Avoids[0] != 2 {
		t.Errorf("rung-1 avoidances = %d, want exactly NA=2", sig.Calib.Avoids[0])
	}
	if sig.Calib.Active() && sig.Calib.Rung < 2 {
		t.Errorf("ladder never advanced past rung 1: %+v", sig.Calib)
	}
	if got := rt.Stats().Yields; got < 2 {
		t.Errorf("yields = %d, want >= 2", got)
	}
}

// TestCorruptHistoryFailsNew injects a corrupted history file.
func TestCorruptHistoryFailsNew(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hist.json")
	writeFile(t, path, "{definitely not json")
	cfg := testConfig()
	cfg.HistoryPath = path
	if _, err := New(cfg); err == nil {
		t.Fatal("corrupt history must fail New")
	}
}

// TestSaveFailureSurfacesOnStop injects an unwritable history path.
func TestSaveFailureSurfacesOnStop(t *testing.T) {
	cfg := testConfig()
	cfg.HistoryPath = filepath.Join(t.TempDir(), "nodir-as-file", "x", "hist.json")
	var rt *Runtime
	cfg.OnDeadlock = func(info monitor.DeadlockInfo) { rt.AbortThreads(info.ThreadIDs...) }
	rt = MustNew(cfg)
	// Make the parent un-creatable: create a FILE where the directory
	// should go.
	parent := filepath.Dir(filepath.Dir(cfg.HistoryPath))
	writeFile(t, parent, "in the way")
	a, b := rt.NewMutex(), rt.NewMutex()
	forceDeadlock(rt, a, b, holdTime) // produces a signature -> Save attempts
	if err := rt.Stop(); err == nil {
		t.Fatal("Stop must surface the save failure")
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := writeFileErr(path, content); err != nil {
		t.Fatal(err)
	}
}

// TestThreeThreadDeadlockEndToEnd contracts a 3-cycle and verifies the
// signature has three stacks, then immunity holds.
func TestThreeThreadDeadlockEndToEnd(t *testing.T) {
	cfg := testConfig()
	cfg.MatchDepth = 1
	var rt *Runtime
	cfg.OnDeadlock = func(info monitor.DeadlockInfo) { rt.AbortThreads(info.ThreadIDs...) }
	rt = MustNew(cfg)
	defer rt.Stop()

	locks := []*Mutex{rt.NewMutex(), rt.NewMutex(), rt.NewMutex()}
	firsts := []func(*Thread, *Mutex) error{lockA, lockB, lockC3}

	run := func() []error {
		errs := make([]error, 3)
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				th := rt.RegisterThread("w")
				defer th.Close()
				first := locks[i]
				second := locks[(i+1)%3]
				if errs[i] = firsts[i](th, first); errs[i] != nil {
					return
				}
				time.Sleep(holdTime)
				if errs[i] = second.LockT(th); errs[i] != nil {
					_ = first.UnlockT(th)
					return
				}
				_ = second.UnlockT(th)
				_ = first.UnlockT(th)
			}(i)
		}
		wg.Wait()
		return errs
	}

	// Contract the 3-cycle.
	sawRecovery := false
	for trial := 0; trial < 8; trial++ {
		errs := run()
		for _, e := range errs {
			if errors.Is(e, ErrDeadlockRecovered) {
				sawRecovery = true
			}
		}
		if rt.History().Len() >= 1 {
			clean := true
			for _, e := range errs {
				if e != nil {
					clean = false
				}
			}
			if clean {
				break
			}
		}
	}
	if !sawRecovery {
		t.Fatal("3-thread deadlock never contracted")
	}
	found3 := false
	for _, sig := range rt.History().Snapshot() {
		if sig.Size() == 3 {
			found3 = true
		}
	}
	if !found3 {
		t.Fatalf("no three-stack signature archived; history: %d sigs", rt.History().Len())
	}
}

//go:noinline
func lockC3(t *Thread, m *Mutex) error { return m.LockT(t) }

func writeFileErr(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
