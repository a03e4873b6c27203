package workload

import (
	"testing"
	"time"

	"dimmunix/internal/core"
)

func newRT(t *testing.T, cfg core.Config) *core.Runtime {
	t.Helper()
	if cfg.Tau == 0 {
		cfg.Tau = 5 * time.Millisecond
	}
	rt := core.MustNew(cfg)
	t.Cleanup(func() { rt.Stop() })
	return rt
}

func TestRunProducesOps(t *testing.T) {
	rt := newRT(t, core.Config{})
	r := NewRunner(rt, Config{
		Threads:  4,
		Locks:    4,
		Duration: 100 * time.Millisecond,
	})
	res := r.Run()
	if res.Ops == 0 {
		t.Fatal("no lock operations performed")
	}
	if res.Throughput <= 0 {
		t.Error("throughput not computed")
	}
	if res.Yields != 0 {
		t.Errorf("yields = %d with empty history (must be 0, §5.7)", res.Yields)
	}
}

func TestConfigDefaults(t *testing.T) {
	rt := newRT(t, core.Config{})
	r := NewRunner(rt, Config{})
	c := r.Config()
	if c.Threads != 64 || c.Locks != 8 || c.Levels != 5 {
		t.Errorf("defaults = %+v", c)
	}
}

func TestStackDiversity(t *testing.T) {
	rt := newRT(t, core.Config{})
	r := NewRunner(rt, Config{Threads: 4, Locks: 2})
	// Warmup, not Run: a plain run records call paths alike in their
	// innermost MatchDepth frames as the first of them seen.
	r.Warmup(150 * time.Millisecond)
	stacks := rt.CapturedStacks()
	// 4 branch choices over 5 levels: a short run must still observe
	// many distinct stacks.
	if len(stacks) < 20 {
		t.Fatalf("only %d distinct stacks; call chains not diversifying", len(stacks))
	}
	// All lock stacks share the innermost frame (lockOp) but must
	// differ beyond it.
	seen := make(map[string]bool)
	for _, s := range stacks {
		seen[s.String()] = true
	}
	if len(seen) != len(stacks) {
		t.Error("interner returned duplicate stacks")
	}
}

func TestDeterministicPathsWithSameSeed(t *testing.T) {
	mk := func(seed int64) uint64 {
		rt := newRT(t, core.Config{})
		r := NewRunner(rt, Config{Threads: 2, Locks: 2, Duration: 50 * time.Millisecond, Seed: seed})
		res := r.Run()
		return res.Ops
	}
	// Wall-clock bounded runs are not op-identical, but must both make
	// progress; determinism is in the path/lock choices (exercised via
	// the RNG seeding), so just smoke both seeds.
	if mk(1) == 0 || mk(2) == 0 {
		t.Fatal("seeded runs made no progress")
	}
}

func TestSynthesizeHistory(t *testing.T) {
	rt := newRT(t, core.Config{})
	r := NewRunner(rt, Config{Threads: 4, Locks: 4, Duration: 0})
	r.Warmup(120 * time.Millisecond)
	pop := rt.CapturedStacks()
	if len(pop) == 0 {
		t.Fatal("no stacks captured")
	}
	hist, err := SynthesizeHistory(pop, 32, 2, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if hist.Len() != 32 {
		t.Fatalf("history len = %d", hist.Len())
	}
	for _, sig := range hist.Snapshot() {
		if sig.Size() != 2 {
			t.Errorf("signature size = %d", sig.Size())
		}
		if sig.Depth != 4 {
			t.Errorf("depth = %d", sig.Depth)
		}
	}
}

func TestSynthesizeHistoryErrors(t *testing.T) {
	if _, err := SynthesizeHistory(nil, 4, 2, 4, 1); err == nil {
		t.Error("empty population must error")
	}
	rt := newRT(t, core.Config{})
	r := NewRunner(rt, Config{Threads: 1, Locks: 1, Duration: 0})
	r.Warmup(30 * time.Millisecond)
	pop := rt.CapturedStacks()
	// Asking for more distinct signatures than combinations exist.
	if len(pop) > 0 {
		if _, err := SynthesizeHistory(pop[:1], 10, 1, 4, 1); err == nil {
			t.Error("unsatisfiable request must error")
		}
	}
}

// TestSynthesizedHistoryInducesMatchingWork verifies the §7.2.1 claim we
// rely on: synthesized signatures exercise the avoidance path (matching
// cost), even if they rarely yield.
func TestSynthesizedHistoryInducesMatchingWork(t *testing.T) {
	rt := newRT(t, core.Config{})
	r := NewRunner(rt, Config{Threads: 4, Locks: 4, Duration: 0, Seed: 3})
	r.Warmup(120 * time.Millisecond)
	hist, err := SynthesizeHistory(rt.CapturedStacks(), 16, 2, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	rt.History().Merge(hist)
	res := r.Run()
	if res.Ops == 0 {
		t.Fatal("no ops with populated history")
	}
	// The run may or may not yield (signatures are synthetic), but must
	// never deadlock or error out; ops flowing is the check.
}
