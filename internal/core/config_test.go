package core

import (
	"strings"
	"testing"

	"dimmunix/internal/stack"
)

// TestCaptureDepthDerived: the capture depth is not an input. It is the
// deepest of 16 and whatever reads frames — MatchDepth, the calibration
// ceiling when Calibrate is on, the lab's probe depth — so a ladder rung
// or a probe can never look past the frames a capture kept, and a stack
// reaching the lock through a deeper call chain is interned at exactly
// that length. A MatchDepth no capture can deliver is refused by New.
func TestCaptureDepthDerived(t *testing.T) {
	for _, row := range []struct {
		name string
		cfg  Config
		lab  Lab
		want int
	}{
		{name: "defaults", want: 16},
		{name: "match-depth-below-floor", cfg: Config{MatchDepth: 6}, want: 16},
		{name: "match-depth", cfg: Config{MatchDepth: 20}, want: 20},
		{name: "calibrate-default-ceiling", cfg: Config{Calibrate: true}, want: 16}, // covers all 10 rungs
		{name: "calibrate-lab-ceiling", cfg: Config{Calibrate: true}, lab: Lab{CalibMaxDepth: 20}, want: 20},
		{name: "lab-ceiling-without-calibrate", lab: Lab{CalibMaxDepth: 20}, want: 16},
		{name: "probe-depth", lab: Lab{ProbeDepth: 24}, want: 24},
		{name: "lab-beyond-one-capture", lab: Lab{ProbeDepth: 100}, want: stack.MaxCaptureDepth},
	} {
		t.Run(row.name, func(t *testing.T) {
			row.cfg.Tau = testConfig().Tau
			rt, err := NewLab(row.cfg, row.lab)
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Stop()
			if got := rt.cfg.captureDepth; got != row.want {
				t.Fatalf("capture depth = %d, want %d", got, row.want)
			}
			if row.want > 24 {
				return // deeper than the chain below leaves room for under the capture ceiling
			}
			th := rt.RegisterThread("deep")
			defer th.Close()
			lockUnlockDeep(t, th, rt.NewMutex(), 28)
			stacks := rt.CapturedStacks()
			if len(stacks) != 1 {
				t.Fatalf("captured %d distinct stacks, want 1", len(stacks))
			}
			if got := len(stacks[0]); got != row.want {
				t.Fatalf("interned stack is %d frames deep, want the derived %d", got, row.want)
			}
		})
	}

	_, err := New(Config{MatchDepth: 100})
	if err == nil || !strings.Contains(err.Error(), "MatchDepth 100") {
		t.Fatalf("New(MatchDepth: 100) = %v, want an error naming MatchDepth", err)
	}
	rt, err := New(Config{MatchDepth: stack.MaxCaptureDepth})
	if err != nil {
		t.Fatalf("New(MatchDepth: %d) = %v, want the ceiling itself accepted", stack.MaxCaptureDepth, err)
	}
	rt.Stop()
}
