// Package signature defines deadlock/starvation signatures and the
// persistent history that gives programs immunity across restarts (§5.3).
//
// A signature is a multiset of call stacks — one per thread blocked in the
// detected deadlock or starvation — plus a matching depth. Signatures
// contain no thread or lock identities, which makes them portable from one
// execution to the next.
package signature

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"dimmunix/internal/calib"
	"dimmunix/internal/stack"
)

// Kind distinguishes deadlock signatures from induced-starvation
// signatures. Both are avoided with the same logic (§5.2).
type Kind uint8

const (
	// Deadlock marks a signature captured from a deadlock cycle.
	Deadlock Kind = iota
	// Starvation marks a signature captured from a yield cycle.
	Starvation
)

func (k Kind) String() string {
	if k == Starvation {
		return "starvation"
	}
	return "deadlock"
}

// DefaultDepth is the fixed call-stack matching depth used when dynamic
// calibration is off (§5.5: "4 by default").
const DefaultDepth = 4

// Signature.Source values. Provenance is informational metadata —
// matching, merging, and identity ignore it — but operators (and the
// fleet drills) use it to tell how an entry was learned.
const (
	// SourceLive marks signatures archived from a deadlock that actually
	// fired; persisted as the empty string for v2 compatibility.
	SourceLive = ""
	// SourcePredicted marks signatures emitted by the offline trace
	// analyzer (dimmunix-predict) before the deadlock ever fired.
	SourcePredicted = "predicted"
	// SourceStatic marks signatures emitted by the compile-time
	// lock-order analysis (dimmunix-vet -emit): no process ever executed
	// the acquisitions, let alone the deadlock.
	SourceStatic = "static"
)

// Signature is one archived deadlock or starvation pattern.
type Signature struct {
	// ID is the canonical content hash of the stack multiset; two
	// signatures with the same stacks (in any order) get the same ID.
	ID string
	// Kind records what produced the signature.
	Kind Kind
	// Stacks is the multiset of call stacks, in canonical (sorted) order.
	Stacks []stack.Stack
	// Depth is the matching depth: how long an (innermost) suffix of
	// each stack is considered during matching.
	Depth int
	// Disabled signatures are kept in the history but never avoided
	// (§5.7: users may disable signatures whose avoidance suppresses
	// functionality).
	Disabled bool
	// Rev is the entry's monotonic revision, bumped on every persisted
	// state transition (disable/enable flips, resurrection after a
	// removal). Merging histories is a deterministic join on revisions:
	// the higher revision wins, so removals and disabled-flips propagate
	// between processes instead of being resurrected by stale snapshots.
	// A zero Rev means "fresh"; History.Add normalizes it to at least 1.
	Rev uint64
	// CreatedUnix is the archive time (seconds since epoch).
	CreatedUnix int64
	// Source records where the entry came from: "" for signatures
	// archived from a live detection, SourcePredicted for entries the
	// offline trace analyzer emitted (dimmunix-predict) before the
	// deadlock ever fired. Informational metadata — matching, merging,
	// and identity ignore it — persisted in format v2 so operators can
	// tell predicted from experienced entries. When a predicted pattern
	// later manifests for real, the live archive is a duplicate ID and
	// the entry keeps its predicted provenance.
	Source string

	// AvoidCount counts avoidance actions (yields) attributed to this
	// signature; the avoidance action log of §5.7.
	AvoidCount uint64
	// AbortCount counts yields aborted by the max-yield-duration bound.
	AbortCount uint64
	// FPCount / TPCount accumulate retrospective false/true positive
	// verdicts (§5.5).
	FPCount uint64
	TPCount uint64

	// Calib is the dynamic matching-depth calibration state.
	Calib calib.State
}

// New builds a canonical signature from a stack multiset. Stacks are
// cloned and sorted; depth <= 0 selects DefaultDepth.
func New(kind Kind, stacks []stack.Stack, depth int) *Signature {
	canon := make([]stack.Stack, len(stacks))
	for i, s := range stacks {
		canon[i] = s.Clone()
	}
	sig := newOwned(kind, canon, depth)
	sig.CreatedUnix = time.Now().Unix()
	return sig
}

// newOwned canonicalises a stack multiset the caller hands over (New's
// clone, the decoder's freshly parsed stacks): it sorts stacks in place
// and computes the ID. CreatedUnix is left for the caller.
func newOwned(kind Kind, stacks []stack.Stack, depth int) *Signature {
	if depth <= 0 {
		depth = DefaultDepth
	}
	sortStacks(stacks)
	return &Signature{
		ID:     idOf(stacks),
		Kind:   kind,
		Stacks: stacks,
		Depth:  depth,
	}
}

func stackLess(a, b stack.Stack) bool {
	ha, hb := a.Hash(), b.Hash()
	if ha != hb {
		return ha < hb
	}
	return a.String() < b.String()
}

// sortStacks puts ss in canonical order. Persisted signatures arrive
// already sorted, so order is checked before paying for a sort.
func sortStacks(ss []stack.Stack) {
	for i := 1; i < len(ss); i++ {
		if stackLess(ss[i], ss[i-1]) {
			sort.Slice(ss, func(i, j int) bool { return stackLess(ss[i], ss[j]) })
			return
		}
	}
}

// idOf hashes the canonical rendering of each stack, NUL-terminated.
func idOf(canon []stack.Stack) string {
	buf := make([]byte, 0, 512) // stays on the goroutine stack for typical signatures
	for _, s := range canon {
		buf = append(s.AppendTo(buf), 0)
	}
	sum := sha256.Sum256(buf)
	var id [16]byte
	hex.Encode(id[:], sum[:8])
	return string(id[:])
}

// Size returns the number of stacks (threads) in the signature.
func (s *Signature) Size() int { return len(s.Stacks) }

// String renders a short human-readable description.
func (s *Signature) String() string {
	return fmt.Sprintf("%s sig %s: %d stacks, depth %d", s.Kind, s.ID, len(s.Stacks), s.Depth)
}

// Equal reports whether two signatures denote the same stack multiset.
func (s *Signature) Equal(o *Signature) bool { return s.ID == o.ID }

// EffectiveDepth returns the depth matching should use right now: the
// calibration ladder's current rung while calibrating, the chosen depth
// otherwise.
func (s *Signature) EffectiveDepth() int {
	if s.Calib.Active() {
		return s.Calib.CurrentDepth()
	}
	return s.Depth
}
