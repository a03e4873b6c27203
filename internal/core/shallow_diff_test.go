package core

import (
	"sync"
	"testing"

	"dimmunix/internal/calib"
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

// diffCapture is one way of capturing the probe's call path: the
// classification under test behind some ladder of Dimmunix frames
// (diffLadder, or captureClassified itself for an empty ladder), or the
// authoritative full capture (diffExact). arg is the ladder height, except
// for captureClassified, where it is the extraSkip (0).
type diffCapture func(t *Thread, arg int) (*stack.Interned, bool)

// diffProbeA/diffProbeB are two distinct capture call sites (distinct
// innermost application frames), and diffVia threads them through
// recursion so call paths of different physical depth share the same
// innermost frames — exactly the aliasing a truncated classification key
// must stay sound under. Each probe is a single call line, so the capture
// under test and the reference capture see the same application stack.
// Everything in the chain is noinline so the fp build's physical skip
// accounting holds through these test paths too.
//
//go:noinline
func diffProbeA(t *Thread, capture diffCapture, arg int) (*stack.Interned, bool) {
	return capture(t, arg)
}

//go:noinline
func diffProbeB(t *Thread, capture diffCapture, arg int) (*stack.Interned, bool) {
	return capture(t, arg)
}

type diffProbe func(*Thread, diffCapture, int) (*stack.Interned, bool)

//go:noinline
func diffVia(t *Thread, depth int, probe diffProbe, capture diffCapture, arg int) (*stack.Interned, bool) {
	if depth <= 0 {
		return probe(t, capture, arg)
	}
	return diffVia(t, depth-1, probe, capture, arg)
}

var diffPaths = []struct {
	name  string
	probe diffProbe
	depth int
}{
	{"A0", diffProbeA, 0}, {"A1", diffProbeA, 1}, {"A5", diffProbeA, 5}, {"A9", diffProbeA, 9},
	{"B0", diffProbeB, 0}, {"B2", diffProbeB, 2}, {"B9", diffProbeB, 9},
}

// diffMaxWrap is the tallest ladder of Dimmunix frames the differential
// puts between the application and the classification: well past what
// any entry point has (TestEntryPointCallSite's table tops out at 5).
const diffMaxWrap = 8

// checkShallowAgreement runs every probe path behind every ladder height
// twice (miss then cached entry), from ths[0] then ths[1], and swaps the
// two at the end: the call-site table is runtime-wide, so the entry one
// thread writes at epoch e must serve the other at e and be refused to it
// at e+1, the next call's first round. It asserts the depth-bounded verdict
// equals the authoritative classification of the path's exact full stack,
// captured independently through the same application frames — not of the
// stack the classification returned, which for a truncated key is only a
// representative of the paths sharing it. A dangerous verdict must come
// with that exact stack (the guarded tier matches and archives on it).
// The epoch-stable guard makes the check sound under concurrent history
// mutation: epochs are monotonic, so an unchanged epoch across the probe
// window means the index the fast tier classified against is the one we
// re-verify against.
func checkShallowAgreement(t *testing.T, rt *Runtime, ths *[2]*Thread) {
	t.Helper()
	defer func() { ths[0], ths[1] = ths[1], ths[0] }()
	for wrap := 0; wrap <= diffMaxWrap; wrap++ {
		capture := diffCapture((*Thread).captureClassified)
		if wrap > 0 {
			capture = diffLadder
		}
		for _, p := range diffPaths {
			for round, th := range ths {
				ep1, _ := rt.cache.DangerView()
				// One call line for both captures, so they walk the same
				// application frames: under test first, then reference.
				var in, ref *stack.Interned
				var safe bool
				for i, c := range [2]diffCapture{capture, diffExact} {
					got, verdict := diffVia(th, p.depth, p.probe, c, wrap)
					if i == 0 {
						in, safe = got, verdict
					}
					ref = got
				}
				idx := rt.hist.Danger()
				if ep2 := idx.Epoch(); ep1 != ep2 {
					continue // epoch moved mid-probe; verdict vintage ambiguous
				}
				if full := !idx.Dangerous(ref.S); safe != full {
					t.Fatalf("path %s wrap %d round %d: shallow/full divergence: fast tier said safe=%v, full classification of the path's stack says safe=%v (epoch %d, shallow %d)\npath:     %v\nreturned: %v",
						p.name, wrap, round, safe, full, ep1, idx.ShallowDepth(), ref.S, in.S)
				}
				if !safe && in != ref {
					t.Fatalf("path %s wrap %d round %d: dangerous verdict returned a stack that is not the path's own\npath:     %v\nreturned: %v",
						p.name, wrap, round, ref.S, in.S)
				}
			}
		}
	}
}

// captureFor returns the interned exact full stack of one probe path, for
// reference verdicts and for building signatures that target real
// captured call sites.
func captureFor(th *Thread, depth int, probe diffProbe) *stack.Interned {
	in, _ := diffVia(th, depth, probe, diffExact, 0)
	return in
}

// TestShallowFullDifferential drives captureClassified through real call
// paths against every index shape the depth-bounded capture must stay
// sound under: empty history, archived fixed-depth signatures (including
// depth 1 and a depth that exceeds some probe stacks), a sync-pull
// merge, a predicted ReplaceAll swap, disable flips, and the two
// conservative-envelope cases (calibration-armed, depth<=0). At each
// step the fast-tier verdict must match the authoritative full-stack
// classification.
func TestShallowFullDifferential(t *testing.T) {
	rt := MustNew(testConfig())
	defer rt.Stop()
	th := rt.RegisterThread("diff")
	defer th.Close()
	th2 := rt.RegisterThread("diff2")
	defer th2.Close()
	ths := &[2]*Thread{th, th2}

	if !rt.cache.FastOK() {
		t.Fatal("fast tier not armed; the differential would test nothing")
	}

	// Round 1: empty history — everything safe, ShallowDepth 1.
	if got := rt.hist.Danger().ShallowDepth(); got != 1 {
		t.Fatalf("empty history ShallowDepth=%d, want 1", got)
	}
	checkShallowAgreement(t, rt, ths)

	// Round 2: archive a default-depth signature from a real captured
	// path; its probe must flip to dangerous. Recursion depth >= 2 keeps
	// the depth-4 matching window inside the shared diffVia frames, so
	// the test-function call line (different per probe site) is outside
	// it and every deep A path aliases into the signature.
	sA := captureFor(th, 3, diffProbeA).S
	rt.hist.Add(signature.New(signature.Deadlock, []stack.Stack{sA}, 4))
	checkShallowAgreement(t, rt, ths)
	if in, safe := diffVia(th, 3, diffProbeA, (*Thread).captureClassified, 0); safe {
		t.Fatalf("archived signature on path A3 but fast tier still says safe; stack %v", in.S)
	}

	// Round 3: depth-1 signature on the other call site (frames bucket).
	sB := captureFor(th, 2, diffProbeB).S
	rt.hist.Add(signature.New(signature.Deadlock, []stack.Stack{sB}, 1))
	checkShallowAgreement(t, rt, ths)
	if _, safe := diffVia(th, 9, diffProbeB, diffLadder, diffMaxWrap); safe {
		t.Fatal("depth-1 signature must make every aliasing B path dangerous")
	}

	// Round 4: a deep signature pushes the published shallow bound up.
	deep := captureFor(th, 9, diffProbeA).S
	rt.hist.Add(signature.New(signature.Deadlock, []stack.Stack{deep}, 8))
	if got := rt.hist.Danger().ShallowDepth(); got < 8 {
		t.Fatalf("depth-8 signature live but ShallowDepth=%d", got)
	}
	checkShallowAgreement(t, rt, ths)

	// Round 5: sync-pull merge from a remote history.
	remote := signature.NewHistory()
	remote.Add(signature.New(signature.Starvation, []stack.Stack{captureFor(th, 1, diffProbeA).S}, 2))
	rt.hist.Merge(remote)
	checkShallowAgreement(t, rt, ths)

	// Round 6: calibration-armed signature forces the conservative
	// envelope — verdicts still agree, now via full captures.
	calSig := signature.New(signature.Deadlock, []stack.Stack{captureFor(th, 5, diffProbeB).S}, 4)
	calSig.Calib = calib.NewState(10, 20, 1000)
	rt.hist.Add(calSig)
	if got := rt.hist.Danger().ShallowDepth(); got != 0 {
		t.Fatalf("calibration-armed signature live but ShallowDepth=%d, want 0", got)
	}
	checkShallowAgreement(t, rt, ths)

	// Round 7: disable it — the envelope lifts, bound returns.
	rt.hist.SetDisabled(calSig.ID, true)
	if got := rt.hist.Danger().ShallowDepth(); got == 0 {
		t.Fatal("envelope persists after the calibration signature was disabled")
	}
	checkShallowAgreement(t, rt, ths)

	// Round 8: depth<=0 signature (full-stack matching) is the other
	// envelope case.
	zeroSig := signature.New(signature.Deadlock, []stack.Stack{captureFor(th, 2, diffProbeA).S}, 4)
	zeroSig.Depth = -1
	rt.hist.Add(zeroSig)
	if got := rt.hist.Danger().ShallowDepth(); got != 0 {
		t.Fatalf("depth<=0 signature live but ShallowDepth=%d, want 0", got)
	}
	checkShallowAgreement(t, rt, ths)

	// Round 9: predicted inoculation — ReplaceAll swaps the entire
	// content and jumps the epoch; stale bounded entries must be
	// recaptured, never serve the old verdict.
	repl := signature.NewHistory()
	repl.Add(signature.New(signature.Deadlock, []stack.Stack{captureFor(th, 0, diffProbeB).S}, 4))
	rt.hist.ReplaceAll(repl)
	checkShallowAgreement(t, rt, ths)
	if _, safe := diffVia(th, 0, diffProbeA, diffLadder, 1); !safe {
		t.Fatal("ReplaceAll removed the A signatures but path A0 still classifies dangerous")
	}
}

// TestShallowFullDifferentialConcurrent runs the same agreement check
// from several goroutines while another goroutine continuously mutates
// the history (add/disable/remove/replace), so -race can see the index
// publication, marker, and call-site table interplay under fire. The
// epoch-stable guard in checkShallowAgreement keeps the verdict
// comparison meaningful despite the churn.
func TestShallowFullDifferentialConcurrent(t *testing.T) {
	rt := MustNew(testConfig())
	defer rt.Stop()

	seedTh := rt.RegisterThread("seed")
	stacks := []stack.Stack{
		captureFor(seedTh, 0, diffProbeA).S,
		captureFor(seedTh, 3, diffProbeA).S,
		captureFor(seedTh, 1, diffProbeB).S,
		captureFor(seedTh, 9, diffProbeB).S,
	}
	seedTh.Close()

	stop := make(chan struct{})
	var mut sync.WaitGroup
	mut.Add(1)
	go func() {
		defer mut.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			st := stacks[i%len(stacks)]
			depth := []int{1, 2, 4, 8, -1}[i%5]
			sig := signature.New(signature.Deadlock, []stack.Stack{st}, 4)
			if depth == -1 {
				sig.Depth = -1
			} else {
				sig.Depth = depth
			}
			if i%7 == 0 {
				sig.Calib = calib.NewState(10, 20, 1000)
			}
			switch i % 4 {
			case 0, 1:
				rt.hist.Add(sig)
			case 2:
				for _, s := range rt.hist.Snapshot() {
					rt.hist.Remove(s.ID)
					break
				}
			case 3:
				repl := signature.NewHistory()
				repl.Add(sig)
				rt.hist.ReplaceAll(repl)
			}
		}
	}()

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ths := &[2]*Thread{rt.RegisterThread("diff-w"), rt.RegisterThread("diff-w2")}
			defer ths[0].Close()
			defer ths[1].Close()
			for i := 0; i < 40; i++ {
				checkShallowAgreement(t, rt, ths)
			}
		}()
	}
	wg.Wait()
	close(stop)
	mut.Wait()
}

// The two functions below stand in for Dimmunix's own lock-path frames.
// The line directive makes them report a non-test file of this package,
// so call-site stripping (isRuntimeFrame) treats them exactly like the
// real wrappers between an application and Runtime.acquire — which lets
// the differential build ladders taller than any real entry point's. They
// must stay at the end of the file: everything after the directive is
// attributed to the made-up file.
//
// diffLadder classifies the caller's call path from behind height frames
// of its own.
//
//line difflockpath.go:1
//go:noinline
func diffLadder(t *Thread, height int) (*stack.Interned, bool) {
	if height <= 1 {
		return t.captureClassified(0)
	}
	return diffLadder(t, height-1)
}

// diffExact is the reference: the caller's exact full stack.
//
//go:noinline
func diffExact(t *Thread, _ int) (*stack.Interned, bool) {
	return t.captureStack(1), false
}
