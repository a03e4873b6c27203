package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dimmunix"
)

// The service every svc_* workload drives: numCells mutex-guarded cells and
// numRows RWMutex-guarded catalog rows. The same code runs on the drop-in
// dimmunix locks and, for the floor, on sync's.

const (
	numCells      = 64
	numRows       = 8
	opsPerRequest = 4
	// workIters is the fixed amount of work inside every critical section:
	// a count of xorshift steps (about 1 µs), never a calibrated time, so
	// a request stays measurable after the lock path gets 10x faster and
	// costs the same on both commits of a comparison.
	workIters   = 600
	cellBalance = 1000
)

type mutex interface {
	Lock()
	Unlock()
}

type rwmutex interface {
	mutex
	RLock()
	RUnlock()
}

type cell struct {
	mu  mutex
	bal int64
	val uint64
	_   [32]byte // keep neighbouring cells off one cache line
}

type row struct {
	mu  rwmutex
	ver int64
	val uint64
	_   [32]byte
}

type service struct {
	cells []cell
	rows  []row
}

func newService(cells, rows int, newMu func() mutex, newRW func() rwmutex) *service {
	s := &service{cells: make([]cell, cells), rows: make([]row, rows)}
	for i := range s.cells {
		s.cells[i].mu = newMu()
		s.cells[i].bal = cellBalance
		s.cells[i].val = uint64(i)*2654435761 + 1
	}
	for i := range s.rows {
		s.rows[i].mu = newRW()
		s.rows[i].val = uint64(i)*40503 + 1
	}
	return s
}

func newDimmunixService(cells, rows int) *service {
	return newService(cells, rows,
		func() mutex { return new(dimmunix.Mutex) },
		func() rwmutex { return new(dimmunix.RWMutex) })
}

func newSyncService(cells, rows int) *service {
	return newService(cells, rows,
		func() mutex { return new(sync.Mutex) },
		func() rwmutex { return new(sync.RWMutex) })
}

// touchAll takes and releases every lock once: the first Lock of a
// zero-value drop-in mutex binds it to the default runtime, which is part
// of what a cold start costs.
//
//go:noinline
func (s *service) touchAll() {
	for i := range s.cells {
		s.cells[i].mu.Lock()
		s.cells[i].mu.Unlock()
	}
	for i := range s.rows {
		s.rows[i].mu.RLock()
		s.rows[i].mu.RUnlock()
	}
}

// cellSum and verSum are the conservation invariants checked after a run.
func (s *service) cellSum() int64 {
	var sum int64
	for i := range s.cells {
		sum += s.cells[i].bal
	}
	return sum
}

func (s *service) verSum() int64 {
	var sum int64
	for i := range s.rows {
		sum += s.rows[i].ver
	}
	return sum
}

//go:noinline
func spin(x uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// Op kinds, also the letters of a request span's op mix.
const (
	kindRead      = 'r'
	kindGet       = 'g'
	kindTransfer  = 't'
	kindUpdate    = 'u'
	kindRebalance = 'b'
)

// client is one closed-loop caller: it owns a seeded input stream and sends
// its next request only after the previous one completed.
type client struct {
	svc  *service
	rng  *rand.Rand
	tr   *tracer // nil when tracing is off
	mode requestMode
	// rebalancePerMille of requests start with a rebalance, which locks two
	// cells in the reverse of transfer's order (svc_immune).
	rebalancePerMille int

	sink     uint64
	seenVer  [numRows]int64
	updates  int64
	lat      []int64 // latencies of the current slice, ns
	started  atomic.Int64
	finished atomic.Int64
	violated atomic.Int64
}

type requestMode uint8

const (
	modeInline requestMode = iota // svc_pool, svc_immune: requests run on the client goroutine
	modeFresh                     // svc_fresh: a goroutine per request, spawned and joined
	modeSites                     // svc_sites: ops reached through the call-site tree
)

// Each op is its own noinline function so that every lock call site is a
// distinct, stable call stack. All take (a, b) so the call-site tree can
// reach them through one function type.
type opFunc func(c *client, a, b int)

//go:noinline
func opRead(c *client, a, _ int) {
	r := &c.svc.rows[a]
	t0 := c.tr.start()
	r.mu.RLock()
	c.tr.end(spanRLock, t0)
	c.sink += spin(r.val, workIters)
	if r.ver < c.seenVer[a] {
		c.violated.Add(1) // the catalog went backwards
	}
	c.seenVer[a] = r.ver
	t0 = c.tr.start()
	r.mu.RUnlock()
	c.tr.end(spanRUnlock, t0)
}

//go:noinline
func opGet(c *client, a, _ int) {
	cl := &c.svc.cells[a]
	t0 := c.tr.start()
	cl.mu.Lock()
	c.tr.end(spanLock, t0)
	cl.val = spin(cl.val, workIters)
	c.sink += uint64(cl.bal)
	t0 = c.tr.start()
	cl.mu.Unlock()
	c.tr.end(spanUnlock, t0)
}

// opTransfer moves one unit between two cells, locking them in index order.
//
//go:noinline
func opTransfer(c *client, a, b int) {
	if a > b {
		a, b = b, a
	}
	first, second := &c.svc.cells[a], &c.svc.cells[b]
	t0 := c.tr.start()
	first.mu.Lock()
	c.tr.end(spanLock, t0)
	t0 = c.tr.start()
	second.mu.Lock()
	c.tr.end(spanLock, t0)
	first.val = spin(first.val, workIters)
	first.bal--
	second.bal++
	t0 = c.tr.start()
	second.mu.Unlock()
	c.tr.end(spanUnlock, t0)
	t0 = c.tr.start()
	first.mu.Unlock()
	c.tr.end(spanUnlock, t0)
}

//go:noinline
func opUpdate(c *client, a, _ int) {
	r := &c.svc.rows[a]
	t0 := c.tr.start()
	r.mu.Lock()
	c.tr.end(spanWLock, t0)
	r.val = spin(r.val, workIters)
	r.ver++
	c.updates++
	t0 = c.tr.start()
	r.mu.Unlock()
	c.tr.end(spanWUnlock, t0)
}

// opRebalance is transfer with the lock order reversed: against a
// concurrent transfer on the same two cells it is a real deadlock.
//
//go:noinline
func opRebalance(c *client, a, b int) {
	if a < b {
		a, b = b, a
	}
	first, second := &c.svc.cells[a], &c.svc.cells[b]
	t0 := c.tr.start()
	first.mu.Lock()
	c.tr.end(spanLock, t0)
	t0 = c.tr.start()
	second.mu.Lock()
	c.tr.end(spanLock, t0)
	first.val = spin(first.val, workIters)
	first.bal--
	second.bal++
	t0 = c.tr.start()
	second.mu.Unlock()
	c.tr.end(spanUnlock, t0)
	t0 = c.tr.start()
	first.mu.Unlock()
	c.tr.end(spanUnlock, t0)
}

// pickOp draws one op of the service mix: 50% read, 25% get, 20% transfer,
// 5% update.
func (c *client) pickOp() (kind byte, a, b int) {
	r := c.rng.Intn(100)
	switch {
	case r < 50:
		return kindRead, c.rng.Intn(len(c.svc.rows)), 0
	case r < 75:
		return kindGet, c.rng.Intn(len(c.svc.cells)), 0
	case r < 95:
		a, b = c.twoCells()
		return kindTransfer, a, b
	default:
		return kindUpdate, c.rng.Intn(len(c.svc.rows)), 0
	}
}

func (c *client) twoCells() (int, int) {
	n := len(c.svc.cells)
	a := c.rng.Intn(n)
	b := c.rng.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

// doRequest runs one request: opsPerRequest ops drawn from the client's
// stream. The switch gives every op kind its own call site here.
//
//go:noinline
func (c *client) doRequest() {
	var mix [opsPerRequest]byte
	c.tr.beginRequest()
	i := 0
	if c.rebalancePerMille > 0 && c.rng.Intn(1000) < c.rebalancePerMille {
		a, b := c.twoCells()
		opRebalance(c, a, b)
		mix[0] = kindRebalance
		i = 1
	}
	for ; i < opsPerRequest; i++ {
		kind, a, b := c.pickOp()
		mix[i] = kind
		switch kind {
		case kindRead:
			opRead(c, a, b)
		case kindGet:
			opGet(c, a, b)
		case kindTransfer:
			opTransfer(c, a, b)
		default:
			opUpdate(c, a, b)
		}
	}
	c.tr.endRequest(mix)
}

// doRequestSites is doRequest with every op reached through the call-site
// tree, on a path drawn from the stream.
//
//go:noinline
func (c *client) doRequestSites() {
	var mix [opsPerRequest]byte
	c.tr.beginRequest()
	for i := 0; i < opsPerRequest; i++ {
		kind, a, b := c.pickOp()
		mix[i] = kind
		path := uint32(c.rng.Intn(sitePaths))
		switch kind {
		case kindRead:
			site1(c, path, opRead, a, b)
		case kindGet:
			site1(c, path, opGet, a, b)
		case kindTransfer:
			site1(c, path, opTransfer, a, b)
		default:
			site1(c, path, opUpdate, a, b)
		}
	}
	c.tr.endRequest(mix)
}

// request sends one request and waits for it, by the workload's mode.
//
//go:noinline
func (c *client) request() {
	c.started.Add(1)
	switch c.mode {
	case modeFresh:
		done := make(chan struct{})
		go freshRequest(c, done)
		<-done
	case modeSites:
		c.doRequestSites()
	default:
		c.doRequest()
	}
	c.finished.Add(1)
}

// freshRequest is the body of a goroutine spawned for one request, the
// net/http shape: dimmunix meets a goroutine it has never seen.
//
//go:noinline
func freshRequest(c *client, done chan struct{}) {
	c.doRequest()
	close(done)
}

// run sends requests back to back until deadline or until maxReq have been
// sent (0 = no limit), timing each around the whole request — spawn and join
// included where the workload spawns. It is the only caller of request, so
// a discovery pass and a measured slice reach every lock from the same call
// stack.
//
//go:noinline
func (c *client) run(deadline time.Time, maxReq int) {
	c.lat = c.lat[:0]
	for n := 1; ; n++ {
		t0 := time.Now()
		c.request()
		t1 := time.Now()
		c.lat = append(c.lat, int64(t1.Sub(t0)))
		if !t1.Before(deadline) || n == maxReq {
			return
		}
	}
}
