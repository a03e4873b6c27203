package avoidance

import (
	"sync"
	"sync/atomic"
)

// Stats counts avoidance-side activity. All fields are updated atomically
// and may be read at any time.
type Stats struct {
	Requests  atomic.Uint64 // request invocations (including yield retries)
	Gos       atomic.Uint64 // GO decisions
	Yields    atomic.Uint64 // YIELD decisions
	Acquired  atomic.Uint64 // locks acquired
	Releases  atomic.Uint64 // locks released
	Cancels   atomic.Uint64 // rolled-back requests (trylock/timeout/abort)
	ForcedGos atomic.Uint64 // starvation breaks + max-yield releases
	Aborts    atomic.Uint64 // max-yield-duration aborts
	Ignored   atomic.Uint64 // yields suppressed by ignore-decisions mode
	ProbeFPs  atomic.Uint64 // yields that fail the probe-depth re-match (§7.3)
	Reentries atomic.Uint64 // reentrant acquisitions (no decision needed)

	SharedAcquired atomic.Uint64 // shared (reader) acquisitions, also counted in Acquired

	FastGos atomic.Uint64 // GO decisions served by the lock-free fast tier

	// FastAcquired / GuardedAcquired partition Acquired by tier: every
	// non-reentrant acquisition is counted in exactly one of them, so
	// FastAcquired + GuardedAcquired == Acquired holds at any quiescent
	// point — the differential invariant the observability tests assert.
	FastAcquired    atomic.Uint64
	GuardedAcquired atomic.Uint64

	// EventBatches counts Batch carrier events published to the monitor
	// queue (each packs up to event.BatchSize bookkeeping events).
	EventBatches atomic.Uint64

	// sigYields counts YIELD decisions per signature ID, lock-free
	// (sync.Map of *atomic.Uint64); the yield path is already off the
	// fast tier, so the map touch costs nothing where it matters.
	sigYields sync.Map
}

// noteYield counts one YIELD decision against its signature.
func (s *Stats) noteYield(sigID string) {
	s.Yields.Add(1)
	if c, ok := s.sigYields.Load(sigID); ok {
		c.(*atomic.Uint64).Add(1)
		return
	}
	c, _ := s.sigYields.LoadOrStore(sigID, new(atomic.Uint64))
	c.(*atomic.Uint64).Add(1)
}

// YieldsBySignature returns a fresh map of per-signature yield counts.
func (s *Stats) YieldsBySignature() map[string]uint64 {
	out := make(map[string]uint64)
	s.sigYields.Range(func(k, v any) bool {
		if n := v.(*atomic.Uint64).Load(); n > 0 {
			out[k.(string)] = n
		}
		return true
	})
	return out
}

// Snapshot is a plain-value copy of Stats.
type Snapshot struct {
	Requests, Gos, Yields, Acquired, Releases, Cancels uint64
	ForcedGos, Aborts, Ignored, ProbeFPs, Reentries    uint64
	SharedAcquired                                     uint64
	FastGos, FastAcquired, GuardedAcquired             uint64
	EventBatches                                       uint64
}

// Snapshot returns a consistent-enough point-in-time copy.
func (s *Stats) Snapshot() Snapshot {
	return Snapshot{
		Requests:  s.Requests.Load(),
		Gos:       s.Gos.Load(),
		Yields:    s.Yields.Load(),
		Acquired:  s.Acquired.Load(),
		Releases:  s.Releases.Load(),
		Cancels:   s.Cancels.Load(),
		ForcedGos: s.ForcedGos.Load(),
		Aborts:    s.Aborts.Load(),
		Ignored:   s.Ignored.Load(),
		ProbeFPs:  s.ProbeFPs.Load(),
		Reentries: s.Reentries.Load(),

		SharedAcquired: s.SharedAcquired.Load(),

		FastGos:         s.FastGos.Load(),
		FastAcquired:    s.FastAcquired.Load(),
		GuardedAcquired: s.GuardedAcquired.Load(),
		EventBatches:    s.EventBatches.Load(),
	}
}
