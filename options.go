package dimmunix

import (
	"time"
)

// Option configures a Runtime. Options are the primary construction API
// (NewRuntime, Init); core.Config remains underneath as the explicit
// form and can be injected wholesale with WithConfig.
type Option func(*Config)

// NewRuntime creates and starts a Runtime from functional options.
func NewRuntime(opts ...Option) (*Runtime, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return New(cfg)
}

// MustNewRuntime is NewRuntime that panics on error.
func MustNewRuntime(opts ...Option) *Runtime {
	rt, err := NewRuntime(opts...)
	if err != nil {
		panic(err)
	}
	return rt
}

// WithConfig replaces the whole configuration with cfg; options applied
// after it refine cfg.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithHistory sets the persistent history file ("" = in-memory only).
// The file is served by a FileStore underneath; unlike WithHistoryStore
// it does not enable the periodic sync loop by default.
func WithHistory(path string) Option {
	return func(c *Config) { c.HistoryPath = path }
}

// WithHistoryStore plugs in a shared immunity store (§8 distribution):
// the runtime loads its history from the store, pushes newly archived
// signatures through it, and runs a periodic pull→merge→push sync loop
// so signatures, removals, and disabled-flips learned anywhere in the
// fleet take effect here within one sync interval. Obtain a store with
// OpenHistoryStore or construct one from a histstore backend.
func WithHistoryStore(s HistoryStore) Option {
	return func(c *Config) { c.HistoryStore = s }
}

// WithHistorySync configures the shared store from a specification
// string (a file path, a directory of per-process journals, or the
// http:// URL of a dimmunix-hist serve daemon) — the option form of
// DIMMUNIX_HISTORY_SYNC.
func WithHistorySync(spec string) Option {
	return func(c *Config) { c.HistorySync = spec }
}

// WithSyncInterval sets the store sync cadence (default 2 s when a
// shared store is configured; negative disables the loop, leaving
// archive-time pushes and manual Runtime.SyncNow pulls). After
// consecutive failed rounds the loop backs off exponentially (with
// jitter, capped at one minute) instead of hammering a dead daemon
// every interval.
func WithSyncInterval(d time.Duration) Option {
	return func(c *Config) { c.SyncInterval = d }
}

// WithShutdownTimeout bounds the final history publish Shutdown /
// Runtime.Stop performs through the shared store: if the store is
// unreachable, Stop abandons the publish after d instead of stalling
// process exit (earlier pushes and the store's local state keep the
// immunity). Default one second; negative removes the bound. The env
// form is DIMMUNIX_SHUTDOWN_TIMEOUT.
func WithShutdownTimeout(d time.Duration) Option {
	return func(c *Config) { c.ShutdownTimeout = d }
}

// WithSyncRoundTimeout bounds one sync round's store I/O (probe + pull
// + push); an overrunning round against a hung store is abandoned and
// retried with backoff. Default 10 s; negative removes the bound.
func WithSyncRoundTimeout(d time.Duration) Option {
	return func(c *Config) { c.SyncRoundTimeout = d }
}

// WithTau sets the monitor wakeup period (§3; default 100 ms).
func WithTau(d time.Duration) Option {
	return func(c *Config) { c.Tau = d }
}

// WithMode sets the instrumentation level.
func WithMode(m Mode) Option {
	return func(c *Config) { c.Mode = m }
}

// WithImmunity selects weak or strong immunity (§5.4).
func WithImmunity(l ImmunityLevel) Option {
	return func(c *Config) { c.Immunity = l }
}

// WithMatchDepth sets the matching depth recorded in new signatures
// (§5.5; default 4).
func WithMatchDepth(d int) Option {
	return func(c *Config) { c.MatchDepth = d }
}

// WithCalibration arms dynamic matching-depth calibration (§5.5) with
// the given ladder parameters; zero values keep the defaults.
func WithCalibration(maxDepth, na int, nt uint64) Option {
	return func(c *Config) {
		c.Calibrate = true
		c.CalibMaxDepth = maxDepth
		c.CalibNA = na
		c.CalibNT = nt
	}
}

// WithMaxYield bounds one yield episode (§5.7); negative disables the
// bound.
func WithMaxYield(d time.Duration) Option {
	return func(c *Config) { c.MaxYield = d }
}

// WithThreadTTL bounds how long an idle implicitly-registered goroutine
// stays registered before the runtime prunes it (default one minute;
// negative disables pruning). Explicit
// RegisterThread handles are never pruned.
func WithThreadTTL(d time.Duration) Option {
	return func(c *Config) { c.ThreadTTL = d }
}

// WithStackDepth sets the number of frames captured per lock operation.
func WithStackDepth(n int) Option {
	return func(c *Config) { c.StackDepth = n }
}

// WithRecovery installs the §3 deadlock recovery hook, called on the
// monitor goroutine after the signature is archived.
func WithRecovery(fn func(DeadlockInfo)) Option {
	return func(c *Config) { c.OnDeadlock = fn }
}

// WithAbortRecovery arms the built-in recovery policy: deadlock victims'
// lock waits are aborted so their waits end with ErrDeadlockRecovered
// (LockCtx returns it; the panic-free sync-shaped Lock panics with it) —
// the in-process analog of the paper's restart. Composes with
// WithRecovery: the hook still runs after the aborts.
func WithAbortRecovery() Option {
	return func(c *Config) { c.RecoverAborts = true }
}

// WithStarvationHook installs the starvation/restart hook; with strong
// immunity this is the restart hook (§5.4).
func WithStarvationHook(fn func(StarvationInfo)) Option {
	return func(c *Config) { c.OnStarvation = fn }
}

// WithObserver registers an observability callback: fn receives every
// typed Event the runtime publishes (deadlocks, archives, disables,
// yields, recoveries, sync rounds, history changes), on a dedicated
// dispatcher goroutine. Delivery is bounded and non-blocking — a
// stalled fn makes events drop oldest-first (Stats().EventsDropped),
// and can never stall a locker, the monitor, or Stop. May be repeated;
// observers run in registration order. For dynamic consumers prefer
// Runtime.Subscribe.
func WithObserver(fn func(Event)) Option {
	return func(c *Config) { c.Observers = append(c.Observers, fn) }
}

// WithEventBuffer sizes the observability event ring and each
// subscriber channel (default DefaultEventBuffer = 256). Larger buffers
// absorb bigger bursts before dropping; the memory cost is one slot per
// entry per subscriber. The env form is DIMMUNIX_EVENT_BUFFER.
func WithEventBuffer(n int) Option {
	return func(c *Config) { c.EventBuffer = n }
}

// WithEventBatch sets the per-thread monitor-publication batch size
// (default core.DefaultEventBatch = 64; n <= 1 publishes every event
// immediately). Bookkeeping events — fast-tier and guarded acquisitions
// and releases — accumulate in a per-thread buffer that reaches the
// monitor queue as one carrier event when full, when the thread is about
// to block or exit, and at the start of every monitor pass, so detection
// latency stays bounded by τ and the §5.2 release-before-acquired order
// is preserved. Larger batches cut queue traffic and allocation on the
// uncontended fast path; the cost is up to n events of monitor-side
// staleness for threads that are neither blocking nor being swept. The
// env form is DIMMUNIX_EVENT_BATCH.
func WithEventBatch(n int) Option {
	return func(c *Config) { c.EventBatch = n }
}

// WithTraceRecorder arms trace mode: every acquisition event the
// monitor drains — fast-tier operations included — is appended to the
// binary journal at path, for offline deadlock prediction with
// dimmunix-predict. Recording rides the monitor goroutine, so the lock
// path pays nothing for it. The journal rotates to path+".1" at the
// size bound (WithTraceMaxBytes). The env form is DIMMUNIX_TRACE.
func WithTraceRecorder(path string) Option {
	return func(c *Config) { c.TracePath = path }
}

// WithTraceMaxBytes bounds the trace journal before rotation (default
// 64 MiB; negative removes the bound). The env form is
// DIMMUNIX_TRACE_MAX_BYTES.
func WithTraceMaxBytes(n int64) Option {
	return func(c *Config) { c.TraceMaxBytes = n }
}

// WithDiscardObsolete removes signatures whose completed calibration
// shows a 100% false-positive rate at the chosen depth (§8).
func WithDiscardObsolete() Option {
	return func(c *Config) { c.DiscardObsolete = true }
}
