package lint

import (
	"strings"
	"testing"
)

// TestLockOrderCorpus drives the headline analyzer over the
// simapp-derived fixtures: the two-lock inversion (package vars and
// struct fields), the three-lock cycle whose edge spans two functions,
// the guarded and same-thread sound-negative controls, and the
// directive-suppressed reproduction.
func TestLockOrderCorpus(t *testing.T) {
	for _, name := range []string{
		"lockorder_basic",
		"lockorder_fields",
		"lockorder_chain3",
		"lockorder_guarded",
		"lockorder_samethread",
		"lockorder_ignored",
		"lockorder_iface",
		"lockorder_rwmutex",
		"lockorder_instsplit",
		"lockorder_chanpayload",
		"lockorder_paths",
		"lockorder_exclusive",
	} {
		t.Run(name, func(t *testing.T) {
			RunCorpus(t, []*Analyzer{LockOrder}, ".", FixturePath(name))
		})
	}
}

func TestChanCycleCorpus(t *testing.T) {
	RunCorpus(t, []*Analyzer{ChanCycle}, ".", FixturePath("chancycle"))
}

func TestCopyLockCorpus(t *testing.T) {
	RunCorpus(t, []*Analyzer{CopyLock}, ".", FixturePath("copylock"))
}

func TestUnlockCheckCorpus(t *testing.T) {
	RunCorpus(t, []*Analyzer{UnlockCheck}, ".", FixturePath("unlockcheck"))
}

func TestUnlockCheckClosureCorpus(t *testing.T) {
	RunCorpus(t, []*Analyzer{UnlockCheck}, ".", FixturePath("unlockcheck_closure"))
}

func TestCondLoopCorpus(t *testing.T) {
	RunCorpus(t, []*Analyzer{CondLoop}, ".", FixturePath("condloop"))
}

// TestLockOrderSuppressionStats pins the guard machinery itself: the
// controls must be suppressed as candidates, not invisible to the graph.
func TestLockOrderSuppressionStats(t *testing.T) {
	for _, tc := range []struct {
		fixture string
		check   func(*LockOrderResult) (string, bool)
	}{
		{"lockorder_guarded", func(r *LockOrderResult) (string, bool) {
			return "SuppressedGuard", r.SuppressedGuard > 0
		}},
		{"lockorder_samethread", func(r *LockOrderResult) (string, bool) {
			return "SuppressedSeq", r.SuppressedSeq > 0
		}},
		{"lockorder_instsplit", func(r *LockOrderResult) (string, bool) {
			return "SuppressedCtx", r.SuppressedCtx > 0
		}},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			prog, err := Load(Options{Dir: "."}, FixturePath(tc.fixture))
			if err != nil {
				t.Fatalf("load: %v", err)
			}
			res := Analyze(prog, LockOrderOptions{}).LockOrder
			if len(res.Cycles) != 0 {
				t.Fatalf("control fixture produced cycles: %+v", res.Cycles)
			}
			if res.Candidates == 0 {
				t.Fatalf("control fixture produced no candidates; the inversion was not even seen")
			}
			if field, ok := tc.check(&res); !ok {
				t.Fatalf("expected %s > 0, got %+v", field, res)
			}
		})
	}
}

// TestLockOrderExclusiveEdges pins why lockorder_exclusive is silent:
// the graph has reverse()'s b -> a edge, and no path holds a while
// taking b — not an a -> b edge suppressed later, but none at all.
func TestLockOrderExclusiveEdges(t *testing.T) {
	prog, err := Load(Options{Dir: "."}, FixturePath("lockorder_exclusive"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	edges := map[string]bool{}
	for _, e := range buildLoState(prog, LockOrderOptions{}).edges {
		edges[e.from.desc+" -> "+e.to.desc] = true
	}
	if !edges["main.b -> main.a"] {
		t.Fatalf("the b -> a edge is missing; the analyzer saw nothing: %v", edges)
	}
	if edges["main.a -> main.b"] {
		t.Fatalf("an exclusive arm or a failed TryLock produced an a -> b edge: %v", edges)
	}
}

// TestLockOrderRWMutexStats pins the edge-mode semantics: the
// reader-reader pair is a candidate suppressed by the rw guard while
// the writer/reader pair survives as the fixture's single report.
func TestLockOrderRWMutexStats(t *testing.T) {
	prog, err := Load(Options{Dir: "."}, FixturePath("lockorder_rwmutex"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res := Analyze(prog, LockOrderOptions{}).LockOrder
	if len(res.Cycles) != 1 {
		t.Fatalf("want exactly the writer/reader cycle, got %d: %+v", len(res.Cycles), res.Cycles)
	}
	if res.SuppressedRW == 0 {
		t.Fatalf("reader-reader pair was not suppressed by the rw guard: %+v", res)
	}
}

// TestLockOrderCtxWidening pins the -ctx escape hatch: without
// allocation-site contexts the instsplit fixture's helper collapses to
// a self-edge inversion (the pre-context behavior), with them it is
// silent.
func TestLockOrderCtxWidening(t *testing.T) {
	prog, err := Load(Options{Dir: "."}, FixturePath("lockorder_instsplit"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if res := Analyze(prog, LockOrderOptions{}).LockOrder; len(res.Cycles) != 0 {
		t.Fatalf("ctx-refined analysis reported the disjoint instances: %+v", res.Cycles)
	}
	if res := Analyze(prog, LockOrderOptions{NoCtx: true}).LockOrder; len(res.Cycles) == 0 {
		t.Fatalf("NoCtx analysis should widen back to the type-keyed self-edge")
	}
}

// TestLockOrderAltRoots pins report dedup: the same normalized cycle
// realized from several entries (direct caller, main's sequential
// call, the served goroutine) is ONE report carrying the alternate
// entry chains as related information.
func TestLockOrderAltRoots(t *testing.T) {
	prog, err := Load(Options{Dir: "."}, FixturePath("lockorder_chanpayload"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res := Analyze(prog, LockOrderOptions{}).LockOrder
	if len(res.Cycles) != 1 {
		t.Fatalf("want the inversion deduplicated onto one report, got %d: %+v", len(res.Cycles), res.Cycles)
	}
	c := res.Cycles[0]
	if len(c.AltRoots) == 0 {
		t.Fatalf("report lost its alternate entry chains: %+v", c)
	}
	if msg := c.Diagnostic().Message; !strings.Contains(msg, "also reachable via") {
		t.Fatalf("diagnostic does not surface the alternates: %s", msg)
	}
}

// TestChanCycleStats: the fixture's free pair and self-paired flows
// must be suppressed (or never form cycles), leaving one confirmed
// mixed cycle whose lowering has a stack per lock edge.
func TestChanCycleStats(t *testing.T) {
	prog, err := Load(Options{Dir: "."}, FixturePath("chancycle"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	res := Analyze(prog, LockOrderOptions{}).ChanCycle
	if len(res.Diags) != 1 {
		t.Fatalf("want 1 mixed-cycle diagnostic, got %d: %+v", len(res.Diags), res.Diags)
	}
	if res.SuppressedRoot == 0 {
		t.Fatalf("selfPaired flow was not suppressed by the distinct-root guard: %+v", res)
	}
	if len(res.Cycles) != 1 || len(res.Cycles[0].Edges) < 2 {
		t.Fatalf("lowered cycle missing or too thin for -emit: %+v", res.Cycles)
	}
}
