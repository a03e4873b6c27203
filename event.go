package dimmunix

import (
	"dimmunix/internal/obs"
)

// Event is one observability event published by a Runtime: every
// deadlock detected, signature archived or disabled, avoidance yield,
// recovery, sync round, and history change is delivered as one of the
// concrete payload types below. Consume the stream with a type switch:
//
//	for ev := range rt.Subscribe(ctx) {
//		switch e := ev.(type) {
//		case dimmunix.DeadlockDetected:
//			log.Printf("deadlock %s (new=%v)", e.SigID, e.New)
//		case dimmunix.AvoidanceYield:
//			yields.Inc(e.SigID)
//		}
//	}
//
// Delivery is asynchronous through a bounded ring (DefaultEventBuffer):
// when observers or subscribers fall behind, the oldest undelivered
// events are dropped and counted in Stats().EventsDropped — the runtime
// itself never slows down or blocks for an observer. Events are
// telemetry; control flow (recovery, starvation breaking) does not
// depend on their delivery, which is why the WithRecovery and
// Config.OnStarvation callbacks remain synchronous: they are the
// guaranteed-delivery adapters for the two events that commonly carry
// control decisions (DeadlockDetected, StarvationAverted).
type Event = obs.Event

// Concrete event payloads. See the field docs in each type.
type (
	// DeadlockDetected: the monitor found a deadlock cycle (§3).
	DeadlockDetected = obs.DeadlockDetected
	// SignatureArchived: a new signature was saved to the history.
	SignatureArchived = obs.SignatureArchived
	// SignatureDisabled: a signature's disabled flag flipped (§5.7).
	SignatureDisabled = obs.SignatureDisabled
	// AvoidanceYield: a thread yielded to avoid a known pattern (§5.4).
	AvoidanceYield = obs.AvoidanceYield
	// RecoveryAborted: abort recovery unwound deadlock victims.
	RecoveryAborted = obs.RecoveryAborted
	// StarvationAverted: a yield cycle was handled (§5.4).
	StarvationAverted = obs.StarvationAverted
	// SyncRoundDone: one history-store sync round completed (§8).
	SyncRoundDone = obs.SyncRoundDone
	// HistoryChanged: the live signature history mutated; Epoch is the
	// new fast-path invalidation epoch.
	HistoryChanged = obs.HistoryChanged
)

// DefaultEventBuffer is the observability ring (and subscriber channel)
// capacity.
const DefaultEventBuffer = obs.DefaultBufferSize
