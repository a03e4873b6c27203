package simapp

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"dimmunix/internal/core"
	"dimmunix/internal/histstore"
	"dimmunix/internal/lint"
	"dimmunix/internal/signature"
)

// TestStaticInoculation is the compile-time immunity loop in one
// process: the lockorder analyzer reads this package's own source —
// nothing is ever executed, no trace exists — lowers the confirmed
// cycles into static signatures, pushes them through the immunity
// store, and a fresh runtime avoids the real InversionLab interleaving
// on its very first encounter. The guarded control must be suppressed
// statically, so no signature in the store can fire on it.
func TestStaticInoculation(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "static.json")

	// Phase 1 — static analysis of this very package. The go toolchain
	// is invoked for export data, so this costs a build, not a run.
	prog, err := lint.Load(lint.Options{}, "dimmunix/internal/simapp")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res := lint.Analyze(prog, lint.LockOrderOptions{}).LockOrder
	if len(res.Cycles) == 0 {
		t.Fatalf("no cycles confirmed (candidates=%d guard=%d seq=%d)",
			res.Candidates, res.SuppressedGuard, res.SuppressedSeq)
	}
	if res.SuppressedGuard == 0 {
		t.Fatalf("guarded lab not suppressed statically: %+v", res)
	}

	// Phase 2 — lower and push. Calibration is armed: the frames are
	// pseudo-frames, the ladder reconciles them against real stacks.
	emitted := lint.EmitHistory(res.Cycles, lint.EmitOptions{Calibrate: true})
	if emitted.Len() == 0 {
		t.Fatalf("nothing emitted from %d cycles", len(res.Cycles))
	}
	fs := histstore.NewFileStore(storePath)
	if _, err := fs.Push(context.Background(), emitted); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	// Phase 3 — a runtime that has never executed the bug loads the
	// store and survives the exploit interleaving by yielding, not by
	// detect-and-recover.
	avoid := core.MustNew(core.Config{
		HistoryPath: storePath,
		MatchDepth:  2,
		Tau:         2 * time.Millisecond,
		MaxYield:    10 * time.Second,
	})
	defer avoid.Stop()
	var loadedStatic int
	for _, s := range avoid.History().Snapshot() {
		if s.Source == signature.SourceStatic {
			loadedStatic++
		}
	}
	if loadedStatic != emitted.Len() {
		t.Fatalf("runtime loaded %d static entries, store holds %d", loadedStatic, emitted.Len())
	}

	if errs := NewInversionLab(avoid).Exploit(50 * time.Millisecond); !Clean(errs) {
		t.Fatalf("inoculated exploit not clean: %v", errs)
	}
	stats := avoid.Stats()
	if stats.DeadlocksDetected != 0 {
		t.Fatalf("inoculated run detected %d deadlocks; static immunity must avoid, not recover", stats.DeadlocksDetected)
	}
	if stats.Yields == 0 {
		t.Fatal("inoculated run recorded no avoidance yields")
	}
	// The yields must be attributed to a statically-derived signature.
	attributed := false
	for id, n := range stats.YieldsBySignature {
		if n == 0 {
			continue
		}
		sig := avoid.History().Get(id)
		if sig == nil {
			t.Fatalf("yield attributed to unknown signature %s", id)
		}
		if sig.Source == signature.SourceStatic {
			attributed = true
		}
	}
	if !attributed {
		t.Fatalf("no yield attributed to a static signature: %v", stats.YieldsBySignature)
	}
}
