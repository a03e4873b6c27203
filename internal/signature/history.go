package signature

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dimmunix/internal/calib"
	"dimmunix/internal/stack"
)

// History is the persistent set of deadlock and starvation signatures
// (§5.4: loaded from disk at startup, shared read-mostly among all
// threads; the monitor is the only mutator of the on-disk file).
//
// Locking discipline: History's own mutex protects the signature *set*
// (membership, lookup, the Disabled/Rev state machine, tombstones). The
// mutable per-signature fields (Depth, counters, calibration state) are
// owned by the avoidance cache's guard; History only reads them during
// Save, which callers must invoke from the monitor.
type History struct {
	mu      sync.RWMutex
	path    string
	sigs    []*Signature
	byID    map[string]*Signature
	version atomic.Uint64

	// tombs records removed signatures (format v2): each removal leaves a
	// tombstone carrying the revision that superseded the live entry, so
	// merging an older snapshot that still contains the signature cannot
	// resurrect it. Compaction drops a tombstone only when the history
	// holds more than maxTombs of them AND the tombstone is older than
	// minTombAge — count alone (the pre-PR-4 rule) let a single burst of
	// removals evict a fresh tombstone that a stale peer then overrode.
	tombs      map[string]Tombstone
	maxTombs   int
	minTombAge time.Duration

	// fingerprint identifies the build that produced this snapshot (set
	// by the runtime at startup, persisted in format v2). Sync pulls use
	// it to decide whether sigport rules must be applied to an incoming
	// snapshot from a different code revision (§8 porting).
	fingerprint string

	// danger is the epoch-versioned dangerous-stack index consulted by
	// the avoidance fast path. It is republished (immutable snapshot)
	// inside every mutation's critical section; see DangerIndex.
	danger atomic.Pointer[DangerIndex]

	// notify, when set, is invoked after every semantic mutation (add,
	// disable/enable, remove, merge, replace) — the runtime's
	// observability hook. It runs with h.mu held, so it must be
	// non-blocking and must never call back into the History; the
	// runtime wires it to the bounded event bus, which satisfies both.
	notify func(Change)
}

// Change describes one history mutation for the notify hook.
type Change struct {
	// Op is "add", "disable", "enable", "remove", "merge" or "replace".
	Op string
	// SigID is the affected signature for single-entry ops ("" for
	// bulk merges/replaces).
	SigID string
	// Epoch is the history version (= danger-index epoch) after the
	// mutation; Signatures the live entry count.
	Epoch      uint64
	Signatures int
}

// SetNotify installs the mutation hook (nil clears it). See the notify
// field for the contract.
func (h *History) SetNotify(fn func(Change)) {
	h.mu.Lock()
	h.notify = fn
	h.mu.Unlock()
}

// notifyLocked fires the hook for one mutation; h.mu must be held by a
// writer, after the version bump.
func (h *History) notifyLocked(op, sigID string) {
	if h.notify != nil {
		h.notify(Change{Op: op, SigID: sigID, Epoch: h.version.Load(), Signatures: len(h.sigs)})
	}
}

// Tombstone marks a removed signature. Rev is strictly greater than the
// revision of the live entry it superseded; a live entry only resurrects
// through a merge when its revision exceeds the tombstone's (e.g. the
// deadlock manifested again after the removal and was re-archived).
type Tombstone struct {
	ID          string
	Rev         uint64
	DeletedUnix int64
}

// DefaultMaxTombstones bounds how many tombstones a history retains.
// Compaction drops the oldest (by deletion time, then revision) beyond
// the bound — the price is that a sufficiently stale snapshot could
// resurrect a removal that old, which keeps the store size bounded
// (§5.3's history-growth argument applied to removals).
const DefaultMaxTombstones = 4096

// DefaultMinTombstoneAge is how long a tombstone is retained regardless
// of the count bound: eviction requires being over DefaultMaxTombstones
// AND older than this. A week covers any realistic peer staleness (a
// machine down over a long weekend still cannot resurrect a removal),
// while still letting truly ancient tombstones drain once the count
// bound is hit.
const DefaultMinTombstoneAge = 7 * 24 * time.Hour

// DangerIndex is an immutable over-approximation of the call stacks that
// can participate in any enabled signature. Signature stacks are indexed
// per effective matching depth:
//
//   - A signature whose depth could change without a history-version bump
//     — calibration is armed (Calib.On) or was ever configured
//     (Calib.MaxDepth > 0), so rung advances and NT re-arms move the
//     effective depth silently — is indexed by innermost frame alone.
//     Matching at any depth d >= 1 implies the innermost frames agree,
//     and the depth <= 0 / short-stack fallbacks compare full stacks
//     (which also implies it), so the frame bucket over-approximates
//     every rung the ladder may move through.
//
//   - A fixed-depth signature stack is indexed by the hash of its
//     innermost EffectiveDepth frames (stack.HashAtDepth, which falls
//     back to the full-stack hash when the stack is shorter than the
//     depth or the depth is <= 0). Probing a request stack with the same
//     HashAtDepth expression is conservative for every length case of
//     MatchesAtDepth: when both stacks reach the depth, the prefix
//     hashes are equal whenever the prefixes match; the length-mismatch
//     fallbacks require full equality, which implies equal full hashes;
//     hash collisions only yield false "dangerous" verdicts. This keeps
//     stacks that merely share an innermost frame with a deep signature
//     — but diverge within its matching window — on the lock-free fast
//     path.
//
// A stack absent from every bucket can never match an enabled signature
// stack at its effective depth. That is the soundness argument for the
// lock-free fast path: "safe" verdicts stay valid until the signature set
// itself changes, at which point a new index with a fresh epoch is
// published and all cached markers self-invalidate.
type DangerIndex struct {
	epoch    uint64
	frames   map[stack.Frame]struct{}    // depth-volatile sigs: innermost frame
	prefixes map[int]map[uint64]struct{} // fixed depth d -> HashAtDepth(d) set

	// shallowDepth is the published max-effective-depth: the number of
	// innermost frames that fully determine this index's Dangerous
	// verdict, so a capture truncated to at least that many application
	// frames classifies identically to a full capture (the depth-bounded
	// fast-tier capture's soundness contract). 0 is the conservative
	// full-capture envelope: some signature's verdict can depend on
	// frames at unbounded depth — a calibration-capable signature whose
	// effective matching depth moves without an epoch bump (its eventual
	// depth must also stay exact for guarded matching against entries
	// recorded under shallow keys), or a depth<=0 signature whose index
	// bucket hashes complete stacks. See ShallowDepth.
	shallowDepth int
}

// Epoch returns the history version this index was built from. Epochs
// start at 1 so the zero marker on an interned stack never validates.
func (d *DangerIndex) Epoch() uint64 { return d.epoch }

// ShallowDepth returns how many innermost frames suffice for Dangerous
// to reach its full-capture verdict, or 0 when only a full capture is
// sound (the conservative envelope).
//
// The per-bucket argument: the frames bucket probes s[0] only, so it
// needs 1 frame; a prefixes[d] bucket (d >= 1) probes HashAtDepth(d),
// which hashes the innermost d frames whenever len(s) >= d — and a
// capture truncated at bound >= d either has >= d frames (same hash as
// the full stack) or was not truncated at all (it IS the full stack).
// The envelope cases are exactly the ones rebuildDangerLocked cannot
// bound: prefixes[0] hashes complete stacks, and a calibration-capable
// signature's ladder moves its matching depth between epochs.
func (d *DangerIndex) ShallowDepth() int { return d.shallowDepth }

// Dangerous reports whether s could match any enabled signature stack at
// its effective matching depth (an over-approximation; false is
// authoritative).
func (d *DangerIndex) Dangerous(s stack.Stack) bool {
	if len(d.frames) == 0 && len(d.prefixes) == 0 {
		return len(s) == 0 // empty stacks never get the fast path
	}
	if len(s) == 0 {
		return true
	}
	if _, hit := d.frames[s[0]]; hit {
		return true
	}
	for depth, hs := range d.prefixes {
		if _, hit := hs[s.HashAtDepth(depth)]; hit {
			return true
		}
	}
	return false
}

// Len returns the number of distinct indexed keys (innermost frames plus
// per-depth prefix hashes).
func (d *DangerIndex) Len() int {
	n := len(d.frames)
	for _, hs := range d.prefixes {
		n += len(hs)
	}
	return n
}

// NewHistory returns an empty, unbacked history (nothing persists until
// SetPath/SaveTo).
func NewHistory() *History {
	h := &History{
		byID:       make(map[string]*Signature),
		tombs:      make(map[string]Tombstone),
		maxTombs:   DefaultMaxTombstones,
		minTombAge: DefaultMinTombstoneAge,
	}
	h.version.Store(1)
	h.danger.Store(&DangerIndex{epoch: 1, shallowDepth: 1})
	return h
}

// Danger returns the current dangerous-stack index. The returned snapshot
// is immutable; its epoch equals Version() at the time it was published.
func (h *History) Danger() *DangerIndex { return h.danger.Load() }

// rebuildDangerLocked republishes the danger index; h.mu must be held by
// a writer, after version has been bumped for the mutation.
func (h *History) rebuildDangerLocked() {
	idx := &DangerIndex{epoch: h.version.Load(), shallowDepth: 1}
	for _, s := range h.sigs {
		if s.Disabled {
			continue
		}
		// Calibration-capable signatures change effective depth without a
		// version bump (rung advances, NT re-arms), so they take the
		// depth-independent innermost-frame bucket. Fixed-depth signatures
		// index at their effective depth; depth 1 also reduces to the
		// frame bucket (HashAtDepth(1) keys would work but the frame set
		// is cheaper to probe).
		volatileDepth := s.Calib.On || s.Calib.MaxDepth > 0
		d := s.EffectiveDepth()
		// Max-effective-depth publication for the shallow-capture fast
		// tier: classification by the frames bucket needs only frame 0,
		// but a calibration-live ladder will later *match* at rungs the
		// index cannot see — force the full-capture envelope so every
		// stack that could ever cover one of its positions is recorded
		// exactly. Depth <= 0 hashes complete stacks: envelope too.
		if volatileDepth || d <= 0 {
			idx.shallowDepth = 0
		} else if idx.shallowDepth > 0 && d > idx.shallowDepth {
			idx.shallowDepth = d
		}
		for _, st := range s.Stacks {
			if len(st) == 0 {
				continue
			}
			if volatileDepth || d == 1 {
				if idx.frames == nil {
					idx.frames = make(map[stack.Frame]struct{})
				}
				idx.frames[st[0]] = struct{}{}
				continue
			}
			e := d
			if e <= 0 {
				e = 0 // full-stack hash bucket
			}
			if idx.prefixes == nil {
				idx.prefixes = make(map[int]map[uint64]struct{})
			}
			hs := idx.prefixes[e]
			if hs == nil {
				hs = make(map[uint64]struct{})
				idx.prefixes[e] = hs
			}
			hs[st.HashAtDepth(e)] = struct{}{}
		}
	}
	h.danger.Store(idx)
}

// Load reads a history file. A missing file yields an empty history bound
// to path (the common first-run case).
func Load(path string) (*History, error) {
	h := NewHistory()
	h.path = path
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return h, nil
	}
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	if err := h.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return h, nil
}

// Path returns the backing file path ("" if unbacked).
func (h *History) Path() string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.path
}

// SetPath rebinds the backing file.
func (h *History) SetPath(path string) {
	h.mu.Lock()
	h.path = path
	h.mu.Unlock()
}

// Version increments on every membership or persisted-state change; the
// avoidance cache uses it to invalidate its signature match index.
func (h *History) Version() uint64 { return h.version.Load() }

// Add inserts sig if no signature with the same stack multiset exists.
// It reports whether the signature was new. Duplicate signatures are
// disallowed, which bounds history growth (§5.3). Adding over a tombstone
// resurrects deliberately — the pattern manifested again after removal —
// and the new entry's revision supersedes the tombstone's, so the
// resurrection wins subsequent merges.
func (h *History) Add(sig *Signature) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.byID[sig.ID]; dup {
		return false
	}
	if sig.Rev == 0 {
		sig.Rev = 1
	}
	if t, ok := h.tombs[sig.ID]; ok {
		if sig.Rev <= t.Rev {
			sig.Rev = t.Rev + 1
		}
		delete(h.tombs, sig.ID)
	}
	h.sigs = append(h.sigs, sig)
	h.byID[sig.ID] = sig
	h.version.Add(1)
	h.rebuildDangerLocked()
	h.notifyLocked("add", sig.ID)
	return true
}

// Get returns the signature with the given ID, or nil.
func (h *History) Get(id string) *Signature {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.byID[id]
}

// Len returns the number of signatures.
func (h *History) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.sigs)
}

// Snapshot returns the signatures in insertion order. The slice is fresh;
// the *Signature values are shared (see locking discipline above).
func (h *History) Snapshot() []*Signature {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]*Signature, len(h.sigs))
	copy(out, h.sigs)
	return out
}

// SetDisabled flips a signature's disabled flag (§5.7's "disable the last
// avoided signature"). A real state change bumps the entry's revision so
// the flip propagates through merges. It reports whether the signature
// exists.
func (h *History) SetDisabled(id string, disabled bool) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.byID[id]
	if s == nil {
		return false
	}
	changed := s.Disabled != disabled
	if changed {
		s.Disabled = disabled
		s.Rev++
	}
	h.version.Add(1)
	h.rebuildDangerLocked()
	if changed {
		op := "disable"
		if !disabled {
			op = "enable"
		}
		h.notifyLocked(op, id)
	}
	return true
}

// Remove deletes a signature (obsolete after an upgrade, §8), leaving a
// tombstone whose revision supersedes the removed entry's so the removal
// propagates through merges instead of being resurrected by older
// snapshots. It reports whether the signature existed.
func (h *History) Remove(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.byID[id]
	if !ok {
		return false
	}
	delete(h.byID, id)
	for i, e := range h.sigs {
		if e.ID == id {
			h.sigs = append(h.sigs[:i], h.sigs[i+1:]...)
			break
		}
	}
	h.tombs[id] = Tombstone{ID: id, Rev: s.Rev + 1, DeletedUnix: time.Now().Unix()}
	h.compactTombsLocked()
	h.version.Add(1)
	h.rebuildDangerLocked()
	h.notifyLocked("remove", id)
	return true
}

// Tombstones returns the removal tombstones in lexical ID order.
func (h *History) Tombstones() []Tombstone {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]Tombstone, 0, len(h.tombs))
	for _, t := range h.tombs {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RestoreTombstone installs a tombstone directly (porting and store
// plumbing). A live entry with a revision above the tombstone's is kept;
// otherwise the merge rule applies and the tombstone removes it.
func (h *History) RestoreTombstone(t Tombstone) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s, ok := h.byID[t.ID]; ok {
		if s.Rev > t.Rev {
			return
		}
		delete(h.byID, t.ID)
		for i, e := range h.sigs {
			if e.ID == t.ID {
				h.sigs = append(h.sigs[:i], h.sigs[i+1:]...)
				break
			}
		}
		h.version.Add(1)
		h.rebuildDangerLocked()
	}
	if lt, ok := h.tombs[t.ID]; ok && lt.Rev >= t.Rev {
		return
	}
	h.tombs[t.ID] = t
	h.compactTombsLocked()
}

// SetTombstoneLimit bounds the retained tombstones (<= 0 restores the
// default). Compaction applies immediately and on every future removal.
func (h *History) SetTombstoneLimit(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n <= 0 {
		n = DefaultMaxTombstones
	}
	h.maxTombs = n
	h.compactTombsLocked()
}

// SetTombstoneMinAge sets how long a tombstone is retained regardless of
// the count bound (0 restores the default; negative disables the age
// floor, reverting to the purely count-based compaction that let a
// removal burst evict fresh tombstones). Applies immediately.
func (h *History) SetTombstoneMinAge(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if d == 0 {
		d = DefaultMinTombstoneAge
	}
	if d < 0 {
		d = -1
	}
	h.minTombAge = d
	h.compactTombsLocked()
}

// tombHardCapFactor bounds how far the age floor may stretch the
// tombstone set past maxTombs: beyond factor×maxTombs even young
// tombstones are dropped (oldest first), so a removal storm — which
// propagates to every fleet member — cannot grow snapshots without
// limit (§5.3's growth argument must survive adversarial bursts too).
const tombHardCapFactor = 4

// compactTombsLocked drops the oldest tombstones beyond maxTombs,
// keeping any younger than minTombAge: eviction requires exceeding the
// count bound AND the age floor, so the set may transiently exceed
// maxTombs after a removal burst rather than shed tombstones a merely
// days-stale peer would override (resurrecting the removed signature).
// The overshoot is itself hard-capped at tombHardCapFactor×maxTombs.
// h.mu must be held by a writer.
func (h *History) compactTombsLocked() {
	if h.maxTombs <= 0 {
		h.maxTombs = DefaultMaxTombstones
	}
	if len(h.tombs) <= h.maxTombs {
		return
	}
	all := make([]Tombstone, 0, len(h.tombs))
	for _, t := range h.tombs {
		all = append(all, t)
	}
	// Newest first: survivors are the most recent removals.
	sort.Slice(all, func(i, j int) bool {
		if all[i].DeletedUnix != all[j].DeletedUnix {
			return all[i].DeletedUnix > all[j].DeletedUnix
		}
		if all[i].Rev != all[j].Rev {
			return all[i].Rev > all[j].Rev
		}
		return all[i].ID < all[j].ID
	})
	ageFloor := h.minTombAge > 0
	var cutoff int64
	if ageFloor {
		cutoff = time.Now().Add(-h.minTombAge).Unix()
	}
	hardCap := tombHardCapFactor * h.maxTombs
	kept := h.maxTombs // all[:maxTombs] always survive
	for _, t := range all[h.maxTombs:] {
		if ageFloor && t.DeletedUnix >= cutoff && kept < hardCap {
			kept++
			continue // young enough that a stale peer could still re-push it
		}
		delete(h.tombs, t.ID)
	}
}

// CloneForStore deep-copies the history into a private snapshot for
// store pushes: the live *Signature values are shared with the avoidance
// layer, whose guard owns their mutable fields (counters, calibration,
// adopted disabled state) — so marshaling the live history from a sync
// goroutine would race with lock traffic. Callers must hold that guard
// across the clone (see avoidance.Cache.WithGuard); the returned copy
// shares nothing mutable and can be serialized or pushed lock-free.
//
// The copy is for MarshalJSONCompact, Save and Merge only: its danger
// index is the empty one NewHistory publishes, not rebuilt — more than
// half the clone's cost, spent under the guard, on an index no consumer
// of a store snapshot reads.
func (h *History) CloneForStore() *History {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := NewHistory()
	out.path = h.path
	out.fingerprint = h.fingerprint
	out.maxTombs = h.maxTombs
	out.minTombAge = h.minTombAge
	for _, s := range h.sigs {
		cp := *s
		cp.Stacks = make([]stack.Stack, len(s.Stacks))
		for i, st := range s.Stacks {
			cp.Stacks[i] = st.Clone()
		}
		cp.Calib = s.Calib.Clone() // the ladder's counter slices are live
		out.sigs = append(out.sigs, &cp)
		out.byID[cp.ID] = &cp
	}
	for id, t := range h.tombs {
		out.tombs[id] = t
	}
	out.version.Store(h.version.Load())
	return out
}

// Fingerprint returns the build fingerprint recorded in this snapshot
// ("" when unknown or mixed).
func (h *History) Fingerprint() string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.fingerprint
}

// SetFingerprint stamps the snapshot with the producing build's identity.
func (h *History) SetFingerprint(fp string) {
	h.mu.Lock()
	h.fingerprint = fp
	h.mu.Unlock()
}

// Merge joins other's entries and tombstones into h — the §8 "proactive
// distribution" path (vendors shipping signatures to users, fleets
// pooling what they learn). The join is a deterministic, commutative,
// idempotent revision race per entry:
//
//   - an entry absent locally is added (a tombstone absent locally is
//     recorded, so removals keep propagating onward);
//   - between a live entry and a tombstone, the higher revision wins and
//     a tie goes to the tombstone — so merging an older snapshot never
//     resurrects a local removal;
//   - between two live entries, the higher revision's disabled state
//     wins; on a tie, disabled wins (the conservative state). Local
//     counters and calibration state are kept either way — they are
//     owned by the local avoidance guard, not merged.
//
// It returns how many local entries changed (adds, state adoptions,
// removals). A plain merge of brand-new signatures returns the number
// added, matching the historical contract.
//
// Merging into a history that live avoidance traffic reads must run
// inside the avoidance decision guard (the monitor's sync loop does):
// state adoption clones entries whose mutable fields that guard owns.
func (h *History) Merge(other *History) int {
	rsigs := other.Snapshot()
	rtombs := other.Tombstones()

	h.mu.Lock()
	defer h.mu.Unlock()
	changed := 0
	// Disabled-state adoptions notify per entry (after the version
	// bump): a §5.7 disable arriving over sync must reach the
	// observability stream exactly like a local SetDisabled.
	var disableFlips, enableFlips []string

	for _, rt := range rtombs {
		if s, ok := h.byID[rt.ID]; ok {
			if rt.Rev < s.Rev {
				continue // local resurrection is newer; keep it
			}
			delete(h.byID, rt.ID)
			for i, e := range h.sigs {
				if e.ID == rt.ID {
					h.sigs = append(h.sigs[:i], h.sigs[i+1:]...)
					break
				}
			}
			h.tombs[rt.ID] = rt
			changed++
			continue
		}
		if lt, ok := h.tombs[rt.ID]; ok {
			if rt.Rev > lt.Rev {
				h.tombs[rt.ID] = rt
				changed++
			}
			continue
		}
		h.tombs[rt.ID] = rt
		changed++
	}

	for _, r := range rsigs {
		if t, ok := h.tombs[r.ID]; ok {
			if r.Rev <= t.Rev {
				continue // our removal (or a propagated one) wins
			}
			delete(h.tombs, r.ID)
			h.sigs = append(h.sigs, r)
			h.byID[r.ID] = r
			changed++
			continue
		}
		if s, ok := h.byID[r.ID]; ok {
			// Adoption is clone-and-swap, never an in-place write: the
			// old *Signature may be held by avoidance matchers and user
			// snapshots, which read it without the history lock. (The
			// struct copy reads the counter fields the avoidance guard
			// owns, which is why runtime-live merges run under it.)
			switch {
			case r.Rev > s.Rev:
				ns := *s
				ns.Disabled = r.Disabled
				ns.Rev = r.Rev
				h.swapLocked(&ns)
				changed++
				if ns.Disabled != s.Disabled {
					if ns.Disabled {
						disableFlips = append(disableFlips, ns.ID)
					} else {
						enableFlips = append(enableFlips, ns.ID)
					}
				}
			case r.Rev == s.Rev && r.Disabled && !s.Disabled:
				ns := *s
				ns.Disabled = true
				h.swapLocked(&ns)
				changed++
				disableFlips = append(disableFlips, ns.ID)
			}
			continue
		}
		if r.Rev == 0 {
			r.Rev = 1
		}
		h.sigs = append(h.sigs, r)
		h.byID[r.ID] = r
		changed++
	}

	if changed > 0 {
		h.compactTombsLocked()
		h.version.Add(1)
		h.rebuildDangerLocked()
		for _, id := range disableFlips {
			h.notifyLocked("disable", id)
		}
		for _, id := range enableFlips {
			h.notifyLocked("enable", id)
		}
		h.notifyLocked("merge", "")
	}
	return changed
}

// swapLocked replaces the live entry for ns.ID with ns; h.mu must be
// held by a writer.
func (h *History) swapLocked(ns *Signature) {
	h.byID[ns.ID] = ns
	for i, e := range h.sigs {
		if e.ID == ns.ID {
			h.sigs[i] = ns
			return
		}
	}
}

// ReplaceAll atomically swaps the signature set (and tombstones) with the
// one from other — the §8 "reload the history without restarting" path.
func (h *History) ReplaceAll(other *History) {
	snap := other.Snapshot()
	tombs := other.Tombstones()
	fp := other.Fingerprint()
	h.mu.Lock()
	h.sigs = make([]*Signature, len(snap))
	copy(h.sigs, snap)
	h.byID = make(map[string]*Signature, len(snap))
	for _, s := range h.sigs {
		h.byID[s.ID] = s
	}
	h.tombs = make(map[string]Tombstone, len(tombs))
	for _, t := range tombs {
		h.tombs[t.ID] = t
	}
	if fp != "" {
		h.fingerprint = fp
	}
	h.version.Add(1)
	h.rebuildDangerLocked()
	h.notifyLocked("replace", "")
	h.mu.Unlock()
}

// persisted mirrors Signature for JSON with stacks in string form.
type persistedSig struct {
	ID          string      `json:"id"`
	Kind        string      `json:"kind"`
	Stacks      []string    `json:"stacks"`
	Depth       int         `json:"depth"`
	Rev         uint64      `json:"rev,omitempty"`
	Disabled    bool        `json:"disabled,omitempty"`
	CreatedUnix int64       `json:"created_unix,omitempty"`
	Source      string      `json:"source,omitempty"`
	AvoidCount  uint64      `json:"avoid_count,omitempty"`
	AbortCount  uint64      `json:"abort_count,omitempty"`
	FPCount     uint64      `json:"fp_count,omitempty"`
	TPCount     uint64      `json:"tp_count,omitempty"`
	Calib       calib.State `json:"calib,omitzero"`
}

type persistedTomb struct {
	ID          string `json:"id"`
	Rev         uint64 `json:"rev"`
	DeletedUnix int64  `json:"deleted_unix,omitempty"`
}

// FormatVersion is the current on-disk format. v2 adds per-entry
// revisions, removal tombstones, and the build fingerprint; v1 files
// (no revisions, no tombstones) load transparently with every entry at
// revision 1 and save back as v2.
const FormatVersion = 2

type persistedHistory struct {
	Format      int             `json:"format"`
	Fingerprint string          `json:"fingerprint,omitempty"`
	Signatures  []persistedSig  `json:"signatures"`
	Tombstones  []persistedTomb `json:"tombstones,omitempty"`
}

func (h *History) persistedLocked() persistedHistory {
	p := persistedHistory{
		Format:      FormatVersion,
		Fingerprint: h.fingerprint,
		Signatures:  make([]persistedSig, 0, len(h.sigs)),
	}
	var buf []byte // one render buffer for every stack
	for _, s := range h.sigs {
		ps := persistedSig{
			ID:          s.ID,
			Kind:        s.Kind.String(),
			Stacks:      make([]string, len(s.Stacks)),
			Depth:       s.Depth,
			Rev:         s.Rev,
			Disabled:    s.Disabled,
			CreatedUnix: s.CreatedUnix,
			Source:      s.Source,
			AvoidCount:  s.AvoidCount,
			AbortCount:  s.AbortCount,
			FPCount:     s.FPCount,
			TPCount:     s.TPCount,
			Calib:       s.Calib,
		}
		for i, st := range s.Stacks {
			buf = st.AppendTo(buf[:0])
			ps.Stacks[i] = string(buf)
		}
		p.Signatures = append(p.Signatures, ps)
	}
	if len(h.tombs) > 0 {
		p.Tombstones = make([]persistedTomb, 0, len(h.tombs))
		for _, t := range h.tombs {
			p.Tombstones = append(p.Tombstones, persistedTomb{ID: t.ID, Rev: t.Rev, DeletedUnix: t.DeletedUnix})
		}
		sort.Slice(p.Tombstones, func(i, j int) bool { return p.Tombstones[i].ID < p.Tombstones[j].ID })
	}
	return p
}

// marshal is the one encoder behind both serialized forms. HTML escaping
// is off: the " < " frame separator is written literally, not as \u003c.
func (h *History) marshal(indent bool) ([]byte, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(h.persistedLocked()); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil // Encode's line terminator
}

// MarshalJSON serializes the history (format v2, indented).
func (h *History) MarshalJSON() ([]byte, error) { return h.marshal(true) }

// MarshalJSONCompact serializes the history as a single line (format v2),
// the record form used by DirStore journals.
func (h *History) MarshalJSONCompact() ([]byte, error) { return h.marshal(false) }

// UnmarshalJSON replaces the in-memory set with the serialized one.
// Formats v1 (and the pre-format files with format 0) load transparently:
// entries get revision 1 and there are no tombstones. Signature IDs are
// recomputed from the stacks, never read from the wire. The new set is
// built before h is touched, so a decode that fails leaves h as it was
// and readers never see a half-replaced set.
func (h *History) UnmarshalJSON(data []byte) error {
	var p persistedHistory
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("history: parse: %w", err)
	}
	if p.Format > FormatVersion {
		return fmt.Errorf("history: format %d is newer than this build supports (%d)", p.Format, FormatVersion)
	}
	tombs := make(map[string]Tombstone, len(p.Tombstones))
	for _, pt := range p.Tombstones {
		rev := pt.Rev
		if rev == 0 {
			rev = 1
		}
		tombs[pt.ID] = Tombstone{ID: pt.ID, Rev: rev, DeletedUnix: pt.DeletedUnix}
	}
	sigs := make([]*Signature, 0, len(p.Signatures))
	byID := make(map[string]*Signature, len(p.Signatures))
	now := time.Now().Unix()
	for i := range p.Signatures {
		ps := &p.Signatures[i]
		kind := Deadlock
		if ps.Kind == "starvation" {
			kind = Starvation
		}
		stacks := make([]stack.Stack, len(ps.Stacks))
		for j, raw := range ps.Stacks {
			st, err := stack.Parse(raw)
			if err != nil {
				return fmt.Errorf("history: signature %s: %w", ps.ID, err)
			}
			stacks[j] = st
		}
		s := newOwned(kind, stacks, ps.Depth)
		s.Disabled = ps.Disabled
		s.Rev = ps.Rev
		if s.Rev == 0 {
			s.Rev = 1 // v1 migration: every entry starts at revision 1
		}
		s.CreatedUnix = ps.CreatedUnix
		if s.CreatedUnix == 0 {
			s.CreatedUnix = now
		}
		s.Source = ps.Source
		s.AvoidCount = ps.AvoidCount
		s.AbortCount = ps.AbortCount
		s.FPCount = ps.FPCount
		s.TPCount = ps.TPCount
		s.Calib = ps.Calib
		if _, dup := byID[s.ID]; dup {
			continue
		}
		// A malformed snapshot carrying both a live entry and a tombstone
		// for one ID resolves by the merge rule: higher revision wins,
		// ties go to the tombstone.
		if t, ok := tombs[s.ID]; ok {
			if s.Rev <= t.Rev {
				continue
			}
			delete(tombs, s.ID)
		}
		sigs = append(sigs, s)
		byID[s.ID] = s
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	h.sigs, h.byID, h.tombs = sigs, byID, tombs
	h.fingerprint = p.Fingerprint
	h.compactTombsLocked()
	h.version.Add(1)
	h.rebuildDangerLocked()
	return nil
}

// Save writes the history to its backing path atomically (write to a
// temporary file in the same directory, then rename). A history without a
// path saves nowhere and returns nil.
func (h *History) Save() error {
	path := h.Path()
	if path == "" {
		return nil
	}
	return h.SaveTo(path)
}

// SaveTo writes the history to path atomically.
func (h *History) SaveTo(path string) error {
	data, err := h.MarshalJSON()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".dimmunix-hist-*")
	if err != nil {
		return fmt.Errorf("history: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("history: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("history: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("history: %w", err)
	}
	return nil
}

// SizeOnDiskEstimate returns the serialized size in bytes (for the §7.4
// resource-utilization report).
func (h *History) SizeOnDiskEstimate() int {
	data, err := h.MarshalJSON()
	if err != nil {
		return 0
	}
	return len(data)
}

// SortedIDs returns the signature IDs in lexical order (stable tooling
// output).
func (h *History) SortedIDs() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	ids := make([]string, 0, len(h.sigs))
	for id := range h.byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
