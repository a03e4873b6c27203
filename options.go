package dimmunix

import (
	"time"
)

// Option configures a Runtime. Config is the complete surface; options
// are shorthands for its commonly set fields (NewRuntime, Init), and
// WithConfig injects a whole Config for the rest.
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

// WithTau sets the monitor wakeup period (§3; default 100 ms).
func WithTau(d time.Duration) Option {
	return func(c *Config) { c.Tau = d }
}

// WithMatchDepth sets the matching depth recorded in new signatures
// (§5.5; default 4).
func WithMatchDepth(d int) Option {
	return func(c *Config) { c.MatchDepth = d }
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
