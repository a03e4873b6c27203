package lint

import (
	"context"
	"path/filepath"
	"testing"

	"dimmunix/internal/histstore"
	"dimmunix/internal/signature"
)

// TestEmitRoundTrip proves the whole static-inoculation pipeline below
// the process boundary: confirmed cycles lower into format-v2
// signatures, survive a histstore push/load cycle byte-for-byte, and
// merging them into a runtime's history bumps the danger-index epoch so
// the avoidance cache re-arms.
func TestEmitRoundTrip(t *testing.T) {
	prog, err := Load(Options{Dir: "."}, FixturePath("lockorder_basic"))
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	res := Analyze(prog, LockOrderOptions{}).LockOrder
	if len(res.Cycles) == 0 {
		t.Fatalf("no cycles confirmed in lockorder_basic (candidates=%d seq=%d guard=%d)",
			res.Candidates, res.SuppressedSeq, res.SuppressedGuard)
	}

	emitted := EmitHistory(res.Cycles, EmitOptions{Calibrate: true})
	if emitted.Len() == 0 {
		t.Fatalf("no signatures emitted from %d cycles", len(res.Cycles))
	}
	for _, sig := range emitted.Snapshot() {
		if sig.Source != signature.SourceStatic {
			t.Errorf("emitted signature %s has Source=%q, want %q", sig.ID, sig.Source, signature.SourceStatic)
		}
		if !sig.Calib.On {
			t.Errorf("emitted signature %s has calibration off; -emit arms the ladder", sig.ID)
		}
		if len(sig.Stacks) < 2 {
			t.Errorf("emitted signature %s has %d stacks, want one per cycle edge (>=2)", sig.ID, len(sig.Stacks))
		}
		for _, st := range sig.Stacks {
			if len(st) == 0 {
				t.Errorf("emitted signature %s carries an empty stack", sig.ID)
			}
		}
	}

	// Push/load through the same store the fleet uses.
	store := histstore.NewFileStore(filepath.Join(t.TempDir(), "hist.json"))
	if _, err := store.Push(context.Background(), emitted); err != nil {
		t.Fatalf("push: %v", err)
	}
	loaded, _, err := store.Load(context.Background())
	if err != nil {
		t.Fatalf("load store: %v", err)
	}
	if loaded.Len() != emitted.Len() {
		t.Fatalf("store round-trip lost entries: pushed %d, loaded %d", emitted.Len(), loaded.Len())
	}

	// Merge into a live runtime's (non-empty) history: the static entry
	// must land, keep its provenance and ladder, and bump the epoch.
	live := signature.NewHistory()
	liveSig := signature.New(signature.Deadlock, emitted.Snapshot()[0].Stacks, 1)
	liveSig.ID = "feedfeedfeedfeed" // distinct entry standing in for a live capture
	live.Add(liveSig)
	v0, e0 := live.Version(), live.Danger().Epoch()
	if n := live.Merge(loaded); n == 0 {
		t.Fatalf("merge applied no changes")
	}
	if live.Version() <= v0 {
		t.Errorf("merge did not bump version: %d -> %d", v0, live.Version())
	}
	if live.Danger().Epoch() <= e0 {
		t.Errorf("merge did not bump danger epoch: %d -> %d", e0, live.Danger().Epoch())
	}
	var statics int
	for _, sig := range live.Snapshot() {
		if sig.Source == signature.SourceStatic {
			statics++
			if !sig.Calib.On {
				t.Errorf("merged static signature %s lost its calibration ladder", sig.ID)
			}
		}
	}
	if statics != emitted.Len() {
		t.Errorf("merged history carries %d static entries, want %d", statics, emitted.Len())
	}
}

// TestEmitThreeEdgeCycle lowers the 3-lock chain fixture together with
// the mixed channel/lock fixture through the shared cycle-list path:
// a >=3-edge cycle must become one signature with three distinct
// stacks, and the combined batch must survive a store round-trip with
// provenance and calibration intact.
func TestEmitThreeEdgeCycle(t *testing.T) {
	prog, err := Load(Options{Dir: "."}, FixturePath("lockorder_chain3"))
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	res := Analyze(prog, LockOrderOptions{}).LockOrder
	var chain *ConfirmedCycle
	for i := range res.Cycles {
		if len(res.Cycles[i].Edges) >= 3 {
			chain = &res.Cycles[i]
		}
	}
	if chain == nil {
		t.Fatalf("no >=3-edge cycle confirmed in lockorder_chain3: %+v", res.Cycles)
	}

	chprog, err := Load(Options{Dir: "."}, FixturePath("chancycle"))
	if err != nil {
		t.Fatalf("load chancycle fixture: %v", err)
	}
	chres := Analyze(chprog, LockOrderOptions{}).ChanCycle
	if len(chres.Cycles) == 0 {
		t.Fatalf("no mixed cycles lowered from the chancycle fixture")
	}

	cycles := append(append([]ConfirmedCycle{}, res.Cycles...), chres.Cycles...)
	emitted := EmitHistory(cycles, EmitOptions{Calibrate: true})
	if emitted.Len() < 2 {
		t.Fatalf("want signatures from both analyzers, got %d", emitted.Len())
	}

	var sawChain bool
	for _, sig := range emitted.Snapshot() {
		if len(sig.Stacks) >= 3 {
			sawChain = true
			distinct := map[string]bool{}
			for _, st := range sig.Stacks {
				if len(st) == 0 {
					t.Fatalf("signature %s carries an empty stack", sig.ID)
				}
				distinct[st.String()] = true
			}
			if len(distinct) != len(sig.Stacks) {
				t.Errorf("3-edge signature %s has duplicate stacks: %v", sig.ID, sig.Stacks)
			}
		}
	}
	if !sawChain {
		t.Fatalf("no emitted signature carries >=3 stacks for the 3-edge cycle")
	}

	store := histstore.NewFileStore(filepath.Join(t.TempDir(), "hist.json"))
	if _, err := store.Push(context.Background(), emitted); err != nil {
		t.Fatalf("push: %v", err)
	}
	loaded, _, err := store.Load(context.Background())
	if err != nil {
		t.Fatalf("load store: %v", err)
	}
	if loaded.Len() != emitted.Len() {
		t.Fatalf("store round-trip lost entries: pushed %d, loaded %d", emitted.Len(), loaded.Len())
	}
	for _, sig := range loaded.Snapshot() {
		if sig.Source != signature.SourceStatic {
			t.Errorf("round-tripped signature %s lost provenance: Source=%q", sig.ID, sig.Source)
		}
		if !sig.Calib.On {
			t.Errorf("round-tripped signature %s lost its calibration ladder", sig.ID)
		}
	}
}
