// Package gatelock implements the gate-lock deadlock-healing baseline of
// Nir-Buchbinder, Tzoref and Ur ("Deadlocks: from exhibiting to healing",
// RV 2008) — reference [17] of the Dimmunix paper and its §7.3 comparator.
//
// When a deadlock is discovered, the code blocks involved (identified by
// their lock-acquisition code positions, WITHOUT call-stack context) are
// wrapped in one shared "gate lock" that must be acquired prior to
// entering any of the blocks. This serializes all executions through those
// positions — including interleavings that could never deadlock, which is
// why the approach exhibits over an order of magnitude more false
// positives than Dimmunix (§7.3: every call to update() is serialized,
// even {[s1,s3],[s1,s3]}).
package gatelock

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"dimmunix/internal/stack"
)

// Site is a lock-acquisition code position: just the innermost frame, no
// call-stack context ("[17] does not use call stacks").
type Site struct {
	Func string
	File string
	Line int
}

// SiteOf extracts the position from a captured stack.
func SiteOf(s stack.Stack) Site {
	if len(s) == 0 {
		return Site{}
	}
	return Site{Func: s[0].Func, File: s[0].File, Line: s[0].Line}
}

func (s Site) String() string {
	return s.Func + "@" + s.File + ":" + strconv.Itoa(s.Line)
}

// gate is one gate lock with a stable ordering key.
type gate struct {
	key string
	mu  sync.Mutex
	// contended counts acquisitions that had to wait — the avoidance
	// (and false-positive) events of this baseline.
	contended uint64
	acquires  uint64
}

// Manager owns the gates and the site index.
type Manager struct {
	mu     sync.Mutex
	gates  map[string]*gate // key = canonical site-set
	bySite map[Site][]*gate
}

// NewManager returns an empty manager (no deadlocks known: no gates).
func NewManager() *Manager {
	return &Manager{
		gates:  make(map[string]*gate),
		bySite: make(map[Site][]*gate),
	}
}

// AddDeadlock registers a discovered deadlock over the given positions and
// creates (or reuses) its gate lock. It reports whether a new gate was
// created; deadlocks whose position set was already gated share the gate,
// which is how 64 history deadlocks required only 45 gates in §7.3.
func (m *Manager) AddDeadlock(sites []Site) bool {
	keys := make([]string, len(sites))
	for i, s := range sites {
		keys[i] = s.String()
	}
	sort.Strings(keys)
	key := strings.Join(keys, "|")

	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.gates[key]; ok {
		return false
	}
	g := &gate{key: key}
	m.gates[key] = g
	seen := make(map[Site]bool)
	for _, s := range sites {
		if seen[s] {
			continue
		}
		seen[s] = true
		m.bySite[s] = append(m.bySite[s], g)
	}
	return true
}

// NumGates returns the number of gate locks.
func (m *Manager) NumGates() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.gates)
}

// Token is the set of gates held for one guarded block entry.
type Token struct {
	gates []*gate
}

// Enter acquires every gate guarding the site, in canonical order (gates
// are totally ordered by key, so gate acquisition itself cannot deadlock).
// The returned token must be released with Exit when the thread leaves the
// guarded block (i.e. releases the application lock it acquired at the
// site). Sites with no gates return an empty token at near-zero cost.
func (m *Manager) Enter(site Site) Token {
	m.mu.Lock()
	gs := m.bySite[site]
	m.mu.Unlock()
	if len(gs) == 0 {
		return Token{}
	}
	ordered := make([]*gate, len(gs))
	copy(ordered, gs)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].key < ordered[j].key })
	for _, g := range ordered {
		if !g.mu.TryLock() {
			m.noteContended(g)
			g.mu.Lock()
		}
		m.noteAcquire(g)
	}
	return Token{gates: ordered}
}

func (m *Manager) noteContended(g *gate) {
	m.mu.Lock()
	g.contended++
	m.mu.Unlock()
}

func (m *Manager) noteAcquire(g *gate) {
	m.mu.Lock()
	g.acquires++
	m.mu.Unlock()
}

// Exit releases the token's gates.
func (m *Manager) Exit(t Token) {
	for i := len(t.gates) - 1; i >= 0; i-- {
		t.gates[i].mu.Unlock()
	}
}

// Stats aggregates gate counters.
type Stats struct {
	Gates     int
	Acquires  uint64
	Contended uint64
}

// Stats returns the aggregate counters; Contended approximates the
// baseline's avoidance/false-positive events (threads serialized that
// were not about to deadlock).
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{Gates: len(m.gates)}
	for _, g := range m.gates {
		st.Acquires += g.acquires
		st.Contended += g.contended
	}
	return st
}
