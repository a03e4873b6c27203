// Package ghostlock implements the ghost-lock deadlock-prevention baseline
// of Zeng and Martin ("Ghost locks: Deadlock prevention for Java") —
// reference [23] of the Dimmunix paper.
//
// Instead of serializing code blocks (gate locks) or steering schedules
// with call-stack context (Dimmunix), ghost locks serialize access to LOCK
// SETS: for each set of locks observed to participate in a deadlock, a
// ghost lock is created that a thread must acquire before locking any
// member of the set, and may release only after it has released all
// members it holds. §4 of the Dimmunix paper: "[23] would add a ghost lock
// for A and B, that would have to be acquired prior to locking either A or
// B".
package ghostlock

import (
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ghost is one ghost lock over a set of application lock IDs.
type ghost struct {
	key string
	mu  sync.Mutex

	stateMu   sync.Mutex
	holder    int64 // thread holding the ghost (0 = none)
	depth     int   // member locks currently held by the holder
	contended uint64
	acquires  uint64
}

// Manager owns the ghost locks.
type Manager struct {
	mu     sync.Mutex
	ghosts map[string]*ghost
	byLock map[uint64][]*ghost
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{
		ghosts: make(map[string]*ghost),
		byLock: make(map[uint64][]*ghost),
	}
}

// AddDeadlock registers a deadlock over the given lock IDs, creating the
// ghost lock for that lock set (idempotent per set).
func (m *Manager) AddDeadlock(lockIDs []uint64) bool {
	ids := append([]uint64(nil), lockIDs...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.FormatUint(id, 10)
	}
	key := strings.Join(parts, "|")

	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.ghosts[key]; ok {
		return false
	}
	g := &ghost{key: key}
	m.ghosts[key] = g
	seen := make(map[uint64]bool)
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		m.byLock[id] = append(m.byLock[id], g)
	}
	return true
}

// NumGhosts returns the number of ghost locks.
func (m *Manager) NumGhosts() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.ghosts)
}

// BeforeLock must be called by thread tid before acquiring lock id. It
// acquires (or re-enters) every ghost covering the lock.
func (m *Manager) BeforeLock(tid int64, id uint64) {
	m.mu.Lock()
	gs := m.byLock[id]
	m.mu.Unlock()
	if len(gs) == 0 {
		return
	}
	ordered := make([]*ghost, len(gs))
	copy(ordered, gs)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].key < ordered[j].key })
	for _, g := range ordered {
		g.stateMu.Lock()
		if g.holder == tid {
			g.depth++
			g.stateMu.Unlock()
			continue
		}
		g.stateMu.Unlock()
		if !g.mu.TryLock() {
			g.stateMu.Lock()
			g.contended++
			g.stateMu.Unlock()
			g.mu.Lock()
		}
		g.stateMu.Lock()
		g.holder = tid
		g.depth = 1
		g.acquires++
		g.stateMu.Unlock()
	}
}

// AfterUnlock must be called by thread tid after releasing lock id. When
// the thread has released every member lock it held of a ghost's set, the
// ghost is released.
func (m *Manager) AfterUnlock(tid int64, id uint64) {
	m.mu.Lock()
	gs := m.byLock[id]
	m.mu.Unlock()
	for _, g := range gs {
		g.stateMu.Lock()
		if g.holder != tid {
			g.stateMu.Unlock()
			continue
		}
		g.depth--
		release := g.depth == 0
		if release {
			g.holder = 0
		}
		g.stateMu.Unlock()
		if release {
			g.mu.Unlock()
		}
	}
}

// Stats aggregates ghost counters.
type Stats struct {
	Ghosts    int
	Acquires  uint64
	Contended uint64
}

// Stats returns the aggregate counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Stats{Ghosts: len(m.ghosts)}
	for _, g := range m.ghosts {
		g.stateMu.Lock()
		st.Acquires += g.acquires
		st.Contended += g.contended
		g.stateMu.Unlock()
	}
	return st
}
