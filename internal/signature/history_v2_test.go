// Tests for the tombstoned format v2: the revision-join merge (removals
// and disabled-flips propagate, stale snapshots cannot resurrect), the
// v1 migration path, and the tombstone compaction bound.
package signature

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dimmunix/internal/calib"
	"dimmunix/internal/stack"
)

// TestMergeDoesNotResurrectRemoved is the regression for the pre-v2 bug:
// History.Merge re-added locally-removed signatures because nothing
// recorded the removal.
func TestMergeDoesNotResurrectRemoved(t *testing.T) {
	local := NewHistory()
	sig := New(Deadlock, []Stack{syn(1), syn(2)}, 4)
	local.Add(sig)

	// An older snapshot (e.g. a stale vendor file or a lagging process's
	// push) that still carries the signature.
	older := NewHistory()
	older.Add(New(Deadlock, []Stack{syn(1), syn(2)}, 4))

	if !local.Remove(sig.ID) {
		t.Fatal("Remove failed")
	}
	if n := local.Merge(older); n != 0 {
		t.Errorf("merging an older snapshot changed %d entries, want 0", n)
	}
	if local.Get(sig.ID) != nil {
		t.Fatal("removed signature was resurrected by Merge")
	}
	if len(local.Tombstones()) != 1 {
		t.Fatalf("tombstones = %d, want 1", len(local.Tombstones()))
	}
}

// Stack aliases stack.Stack for test brevity.
type Stack = stack.Stack

// TestMergeTombstonePropagates: merging a snapshot that removed a
// signature removes it locally too (the fleet-removal path).
func TestMergeTombstonePropagates(t *testing.T) {
	a := NewHistory()
	b := NewHistory()
	sig := New(Deadlock, []Stack{syn(1), syn(2)}, 4)
	a.Add(sig)
	b.Merge(a)
	if b.Get(sig.ID) == nil {
		t.Fatal("precondition: merge should add")
	}
	a.Remove(sig.ID)
	if n := b.Merge(a); n != 1 {
		t.Errorf("Merge(removal) = %d changes, want 1", n)
	}
	if b.Get(sig.ID) != nil {
		t.Fatal("removal did not propagate")
	}
	// And the removal keeps propagating transitively.
	c := NewHistory()
	c.Add(New(Deadlock, []Stack{syn(1), syn(2)}, 4))
	c.Merge(b)
	if c.Get(sig.ID) != nil {
		t.Fatal("removal did not propagate transitively through b")
	}
}

// TestMergeReArchiveWinsOverTombstone: a deadlock that manifests again
// after a removal is deliberately resurrected, and the resurrection wins
// onward merges.
func TestMergeReArchiveWinsOverTombstone(t *testing.T) {
	a := NewHistory()
	sig := New(Deadlock, []Stack{syn(1), syn(2)}, 4)
	a.Add(sig)
	a.Remove(sig.ID)
	tombRev := a.Tombstones()[0].Rev

	re := New(Deadlock, []Stack{syn(1), syn(2)}, 4)
	if !a.Add(re) {
		t.Fatal("re-archive after removal must succeed")
	}
	if re.Rev <= tombRev {
		t.Fatalf("resurrected rev %d must exceed tombstone rev %d", re.Rev, tombRev)
	}
	if len(a.Tombstones()) != 0 {
		t.Fatal("tombstone must clear on resurrection")
	}

	// A peer that still holds the tombstone must accept the resurrection.
	b := NewHistory()
	b.Add(New(Deadlock, []Stack{syn(1), syn(2)}, 4))
	b.RestoreTombstone(Tombstone{ID: sig.ID, Rev: tombRev})
	if b.Get(sig.ID) != nil {
		t.Fatal("precondition: tombstone should remove")
	}
	b.Merge(a)
	if b.Get(sig.ID) == nil {
		t.Fatal("resurrection did not win over the tombstone")
	}
}

// TestMergeDisabledConflict: the higher revision's disabled state wins;
// a tie is resolved deterministically toward disabled.
func TestMergeDisabledConflict(t *testing.T) {
	a := NewHistory()
	b := NewHistory()
	sig := New(Deadlock, []Stack{syn(1), syn(2)}, 4)
	a.Add(sig)
	b.Merge(a)

	// Disable on a (rev bump) → propagates to b.
	a.SetDisabled(sig.ID, true)
	b.Merge(a)
	if got := b.Get(sig.ID); got == nil || !got.Disabled {
		t.Fatal("disable did not propagate")
	}
	// Merging b's (now equal) state back into a changes nothing.
	if n := a.Merge(b); n != 0 {
		t.Errorf("idempotent merge changed %d", n)
	}
	// Re-enable on b (higher rev) → propagates back to a.
	b.SetDisabled(sig.ID, false)
	a.Merge(b)
	if got := a.Get(sig.ID); got == nil || got.Disabled {
		t.Fatal("re-enable did not propagate")
	}

	// Tie-break: same revision, one side disabled → disabled wins.
	x, y := NewHistory(), NewHistory()
	sx := New(Deadlock, []Stack{syn(3), syn(4)}, 4)
	sy := New(Deadlock, []Stack{syn(3), syn(4)}, 4)
	sy.Disabled = true
	sy.Rev = 1
	sx.Rev = 1
	x.Add(sx)
	y.Add(sy)
	x.Merge(y)
	if got := x.Get(sx.ID); got == nil || !got.Disabled {
		t.Fatal("tie must resolve toward disabled")
	}
}

// TestMergeCommutes: joining two divergent histories in either order
// yields the same signature set, disabled states, and tombstones.
func TestMergeCommutes(t *testing.T) {
	build := func() (*History, *History) {
		a, b := NewHistory(), NewHistory()
		s1 := New(Deadlock, []Stack{syn(1), syn(2)}, 4)
		s2 := New(Deadlock, []Stack{syn(3), syn(4)}, 4)
		s3 := New(Starvation, []Stack{syn(5), syn(6)}, 4)
		a.Add(s1)
		a.Add(s2)
		a.Remove(s2.ID)
		b.Add(New(Deadlock, []Stack{syn(3), syn(4)}, 4)) // s2's twin, rev 1
		b.Add(s3)
		b.SetDisabled(s3.ID, true)
		return a, b
	}
	a1, b1 := build()
	a1.Merge(b1)
	a2, b2 := build()
	b2.Merge(a2)

	if got, want := idsOf(a1), idsOf(b2); got != want {
		t.Fatalf("merge not commutative: %q vs %q", got, want)
	}
	for _, s := range a1.Snapshot() {
		o := b2.Get(s.ID)
		if o == nil || o.Disabled != s.Disabled {
			t.Fatalf("state differs for %s", s.ID)
		}
	}
	if len(a1.Tombstones()) != len(b2.Tombstones()) {
		t.Fatalf("tombstones differ: %d vs %d", len(a1.Tombstones()), len(b2.Tombstones()))
	}
}

func idsOf(h *History) string {
	out := ""
	for _, id := range h.SortedIDs() {
		out += id + ","
	}
	return out
}

// TestV1MigrationRoundTrip: a v1 file (no revs, no tombstones) loads
// with every entry at revision 1, saves back as v2, and reloads equal.
func TestV1MigrationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hist.json")

	// Build a v1 file the way PR-2-era code would have written it.
	sig := New(Deadlock, []Stack{syn(1), syn(2)}, 4)
	sig.Disabled = true
	v1 := map[string]any{
		"format": 1,
		"signatures": []map[string]any{{
			"id":       sig.ID,
			"kind":     "deadlock",
			"stacks":   []string{sig.Stacks[0].String(), sig.Stacks[1].String()},
			"depth":    4,
			"disabled": true,
		}},
	}
	data, _ := json.Marshal(v1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	h, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got := h.Get(sig.ID)
	if got == nil || !got.Disabled {
		t.Fatal("v1 load lost the signature or its disabled state")
	}
	if got.Rev != 1 {
		t.Fatalf("v1 entries must migrate at rev 1, got %d", got.Rev)
	}

	if err := h.Save(); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	var p struct {
		Format int `json:"format"`
	}
	if err := json.Unmarshal(raw, &p); err != nil || p.Format != FormatVersion {
		t.Fatalf("saved format = %d (err %v), want %d", p.Format, err, FormatVersion)
	}

	h2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	got2 := h2.Get(sig.ID)
	if got2 == nil || !got2.Disabled || got2.Rev != 1 || h2.Len() != 1 {
		t.Fatal("v2 reload does not round-trip the migrated v1 content")
	}
}

// TestV2RoundTripTombstonesAndFingerprint: revisions, tombstones, and
// the build fingerprint survive a marshal/unmarshal cycle (both indented
// and compact forms).
func TestV2RoundTripTombstonesAndFingerprint(t *testing.T) {
	h := NewHistory()
	h.SetFingerprint("build-A")
	keep := New(Deadlock, []Stack{syn(1), syn(2)}, 4)
	gone := New(Deadlock, []Stack{syn(3), syn(4)}, 4)
	h.Add(keep)
	h.Add(gone)
	h.SetDisabled(keep.ID, true) // rev 2
	h.Remove(gone.ID)            // tombstone rev 2

	for _, marshal := range []func() ([]byte, error){h.MarshalJSON, h.MarshalJSONCompact} {
		data, err := marshal()
		if err != nil {
			t.Fatal(err)
		}
		h2 := NewHistory()
		if err := h2.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		if h2.Fingerprint() != "build-A" {
			t.Errorf("fingerprint = %q", h2.Fingerprint())
		}
		got := h2.Get(keep.ID)
		if got == nil || !got.Disabled || got.Rev != 2 {
			t.Fatal("live entry state lost")
		}
		tombs := h2.Tombstones()
		if len(tombs) != 1 || tombs[0].ID != gone.ID || tombs[0].Rev != 2 {
			t.Fatalf("tombstones lost: %+v", tombs)
		}
	}
}

// TestUnmarshalRejectsNewerFormat guards forward compatibility: a file
// from a future build must not be silently misread.
func TestUnmarshalRejectsNewerFormat(t *testing.T) {
	h := NewHistory()
	err := h.UnmarshalJSON([]byte(`{"format": 99, "signatures": []}`))
	if err == nil {
		t.Fatal("format 99 must be rejected")
	}
}

// TestTombstoneCompactionBound: the tombstone set stays within its
// limit, dropping the oldest removals first. The age floor is disabled
// here to test the count bound in isolation — retention of over-bound
// young tombstones is TestStaleResurrectionPastTombstoneBound's subject.
func TestTombstoneCompactionBound(t *testing.T) {
	h := NewHistory()
	h.SetTombstoneLimit(4)
	h.SetTombstoneMinAge(-1)
	var ids []string
	for i := 0; i < 10; i++ {
		s := New(Deadlock, []Stack{syn(uint64(100 + i)), syn(uint64(200 + i))}, 4)
		h.Add(s)
		ids = append(ids, s.ID)
	}
	for i, id := range ids {
		// Distinct deletion "times" via distinct revisions: bump the rev
		// before removing so newer removals outrank older ones even
		// within one wall-clock second.
		for j := 0; j < i; j++ {
			h.SetDisabled(id, true)
			h.SetDisabled(id, false)
		}
		h.Remove(id)
	}
	tombs := h.Tombstones()
	if len(tombs) != 4 {
		t.Fatalf("tombstones = %d, want the limit 4", len(tombs))
	}
	// Survivors must be the newest removals (highest revisions).
	minRev := tombs[0].Rev
	for _, tb := range tombs {
		if tb.Rev < minRev {
			minRev = tb.Rev
		}
	}
	if minRev < 2*6+1 { // ids[6..9] have revs 13,15,17,19
		t.Fatalf("compaction kept an old tombstone (min rev %d)", minRev)
	}

	// Serialization respects the bound too.
	data, err := h.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	h2 := NewHistory()
	if err := h2.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	if got := len(h2.Tombstones()); got != 4 {
		t.Fatalf("persisted tombstones = %d, want 4", got)
	}
}

// removalBurst archives and immediately removes n unrelated signatures,
// bumping each entry's revision first so the burst's tombstones outrank
// rev-2 tombstones in the compaction order even within one wall-clock
// second (DeletedUnix ties break by revision).
func removalBurst(h *History, n int) {
	for i := 0; i < n; i++ {
		s := New(Deadlock, []Stack{syn(uint64(1000 + i)), syn(uint64(2000 + i))}, 4)
		h.Add(s)
		h.SetDisabled(s.ID, true)
		h.SetDisabled(s.ID, false) // rev 3: the removal tombstone lands at rev 4
		h.Remove(s.ID)
	}
}

// TestStaleResurrectionPastTombstoneBound is the PR 4 regression for
// purely count-based tombstone compaction: a burst of removals evicted
// the oldest tombstone even when it was seconds old, so a very stale
// peer still carrying the removed signature resurrected it on merge.
// The age floor (eviction requires over-bound AND older than the min
// age) closes the window.
func TestStaleResurrectionPastTombstoneBound(t *testing.T) {
	setup := func() (local, stale *History, victimID string) {
		local = NewHistory()
		local.SetTombstoneLimit(2)
		victim := New(Deadlock, []Stack{syn(1), syn(2)}, 4)
		local.Add(victim)
		// The stale peer snapshotted while the victim was still live.
		stale = NewHistory()
		stale.Merge(local)
		local.Remove(victim.ID) // tombstone at rev 2 — the oldest candidate
		return local, stale, victim.ID
	}

	// Legacy behavior (age floor disabled) reproduces the bug: the burst
	// evicts the victim's fresh tombstone and the stale merge resurrects
	// the long-removed signature.
	local, stale, victimID := setup()
	local.SetTombstoneMinAge(-1)
	removalBurst(local, 4)
	local.Merge(stale)
	if local.Get(victimID) == nil {
		t.Fatal("count-only compaction no longer reproduces the resurrection; update this regression")
	}

	// With the age floor (the default), the fresh tombstone survives the
	// burst — transiently exceeding the count bound — and the stale peer
	// cannot resurrect the removal.
	local, stale, victimID = setup()
	removalBurst(local, 4)
	if got := len(local.Tombstones()); got <= 2 {
		t.Fatalf("expected a transient over-bound tombstone set, got %d", got)
	}
	if n := local.Merge(stale); n != 0 {
		t.Errorf("stale merge changed %d entries, want 0", n)
	}
	if local.Get(victimID) != nil {
		t.Fatal("stale peer resurrected a removal past the tombstone bound")
	}
}

// TestTombstoneAgedCompaction: tombstones older than the min age do
// drain once the count bound is exceeded — the age floor defers
// compaction, it does not defeat it.
func TestTombstoneAgedCompaction(t *testing.T) {
	h := NewHistory()
	h.SetTombstoneLimit(2)
	old := time.Now().Add(-30 * 24 * time.Hour).Unix()
	for i := 0; i < 6; i++ {
		h.RestoreTombstone(Tombstone{
			ID:          New(Deadlock, []Stack{syn(uint64(50 + i)), syn(uint64(60 + i))}, 4).ID,
			Rev:         uint64(i + 2),
			DeletedUnix: old,
		})
	}
	if got := len(h.Tombstones()); got != 2 {
		t.Fatalf("aged tombstones = %d, want compaction down to the limit 2", got)
	}
}

// TestTombstoneHardCap: the age floor may stretch the tombstone set past
// the count limit, but never past tombHardCapFactor times it — a removal
// storm cannot grow snapshots without bound.
func TestTombstoneHardCap(t *testing.T) {
	h := NewHistory()
	h.SetTombstoneLimit(2)
	for i := 0; i < 12; i++ {
		s := New(Deadlock, []Stack{syn(uint64(300 + i)), syn(uint64(400 + i))}, 4)
		h.Add(s)
		h.Remove(s.ID)
	}
	if got, cap := len(h.Tombstones()), 2*tombHardCapFactor; got != cap {
		t.Fatalf("young tombstones = %d, want hard cap %d", got, cap)
	}
}

// TestMergeNotifiesAdoptedDisableFlips: a disabled-flag flip adopted
// from a sync merge must fire the same per-entry notify as a local
// SetDisabled — the observability stream's cross-process §5.7 case.
func TestMergeNotifiesAdoptedDisableFlips(t *testing.T) {
	local := NewHistory()
	sig := New(Deadlock, []stack.Stack{
		{{Func: "a", File: "x.go", Line: 1}},
		{{Func: "b", File: "y.go", Line: 2}},
	}, 2)
	local.Add(sig)

	remote := NewHistory()
	rsig := *sig
	rsig.Disabled = true
	rsig.Rev = sig.Rev + 1
	remote.Add(&rsig)

	var ops []string
	var ids []string
	local.SetNotify(func(ch Change) {
		ops = append(ops, ch.Op)
		ids = append(ids, ch.SigID)
	})
	if n := local.Merge(remote); n != 1 {
		t.Fatalf("merge changed %d entries, want 1", n)
	}
	foundDisable := false
	for i, op := range ops {
		if op == "disable" && ids[i] == sig.ID {
			foundDisable = true
		}
	}
	if !foundDisable {
		t.Fatalf("merge-adopted disable did not notify: ops=%v ids=%v", ops, ids)
	}
	if ops[len(ops)-1] != "merge" {
		t.Fatalf("bulk merge notify missing: %v", ops)
	}

	// And the flip back (higher-rev enable) notifies as enable.
	remote2 := NewHistory()
	esig := rsig
	esig.Disabled = false
	esig.Rev = rsig.Rev + 1
	remote2.Add(&esig)
	ops = nil
	ids = nil
	if n := local.Merge(remote2); n != 1 {
		t.Fatalf("enable merge changed %d, want 1", n)
	}
	foundEnable := false
	for i, op := range ops {
		if op == "enable" && ids[i] == sig.ID {
			foundEnable = true
		}
	}
	if !foundEnable {
		t.Fatalf("merge-adopted enable did not notify: ops=%v", ops)
	}
}

// TestCloneForStoreMarshalsLikeItsSource pins what a store snapshot is
// for: the clone serializes byte-identically to the history it was taken
// from (entries, counters, calibration state, tombstones, fingerprint),
// and it carries no danger index of its own — nothing that consumes a
// store snapshot classifies stacks with it.
func TestCloneForStoreMarshalsLikeItsSource(t *testing.T) {
	h := NewHistory()
	h.SetFingerprint("build-A")
	keep := New(Deadlock, []Stack{syn(1), syn(2)}, 4)
	keep.Calib = calib.NewState(8, 4, 16)
	keep.AvoidCount, keep.FPCount = 7, 2
	off := New(Starvation, []Stack{syn(3)}, 2)
	gone := New(Deadlock, []Stack{syn(5), syn(6)}, 4)
	h.Add(keep)
	h.Add(off)
	h.Add(gone)
	h.SetDisabled(off.ID, true)
	h.Remove(gone.ID)

	want, err := h.MarshalJSONCompact()
	if err != nil {
		t.Fatal(err)
	}
	c := h.CloneForStore()
	got, err := c.MarshalJSONCompact()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("clone marshals differently from its source:\n got %s\nwant %s", got, want)
	}
	if c.Version() != h.Version() {
		t.Fatalf("clone version %d, source %d", c.Version(), h.Version())
	}
	if h.Danger().Len() == 0 {
		t.Fatal("the source's danger index is empty; the test shows nothing")
	}
	if c.Danger().Len() != 0 {
		t.Fatal("CloneForStore rebuilt a danger index nobody reads")
	}
	// The clone is private: mutating it leaves the source alone.
	c.Remove(keep.ID)
	if h.Get(keep.ID) == nil {
		t.Fatal("removing from the clone removed from the source")
	}
}
