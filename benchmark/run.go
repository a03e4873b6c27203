package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"dimmunix"
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

// sliceLength is one measured slice; a shadow slice runs before and after it.
const sliceLength = 300 * time.Millisecond

const (
	historySigs  = 128 // the paper's Fig 4 population
	historyDepth = 4
	coldSetups   = 200 // cold set-ups behind setup_s in an untraced run
	tracedSetups = 20  // a traced run does not report setup_s
)

// workload is one svc_* traffic shape. fleet_sync has its own driver.
type workload struct {
	name string
	why  string
	mode requestMode
	// rebalancePerMille > 0 marks svc_immune: that share of requests runs a
	// rebalance, and the history gains the signatures that make it yield.
	rebalancePerMille int
	// threadTTL overrides the runtime's idle-thread TTL (0 = default).
	threadTTL time.Duration
}

var svcWorkloads = []workload{
	{
		name: "svc_pool",
		why:  "long-lived callers on the plain service mix: goroutine identity and call-site capture are the whole cost, so every lock-path change must move this and nothing else should",
		mode: modeInline,
	},
	{
		name: "svc_fresh",
		why:  "a goroutine per request (net/http shape): cold per-thread cache, thread registration and janitor pruning; against svc_pool it prices goroutine identity alone",
		mode: modeFresh,
		// The live-thread set must reach steady state inside the warm-up
		// slice; under the default one-minute TTL it never does within a run.
		threadTTL: 250 * time.Millisecond,
	},
	{
		name: "svc_sites",
		why:  "about a thousand distinct call stacks, far beyond the per-thread table: the PC cache, interner and epoch markers classify, so a cache change moves this and leaves svc_pool flat",
		mode: modeSites,
	},
	{
		name:              "svc_immune",
		why:               "2% of requests invert a lock order and the history knows it: most acquisitions take the guarded tier and rebalances really yield, so avoidance does the work the fast tier does elsewhere",
		mode:              modeInline,
		rebalancePerMille: 20,
	},
}

const fleetWhy = "fleet inoculation rounds over a loopback history daemon: the lock path idles while the signature codec, merge, danger-index rebuild and store do everything; says whether snapshot sync needs replacing"

// cpuTime is the process's user+system CPU time: monitor, janitor and GC
// are charged along with the callers.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// syntheticSignature is the i-th signature of a seed's synthetic history:
// two stack.Synthetic stacks that match nothing live.
func syntheticSignature(seed int64, i int) *signature.Signature {
	base := uint64(seed)<<24 + uint64(i)*2
	sig := signature.New(signature.Deadlock,
		[]stack.Stack{stack.Synthetic(base, historyDepth), stack.Synthetic(base+1, historyDepth)}, historyDepth)
	sig.CreatedUnix = 1
	return sig
}

// syntheticHistory builds the n-signature history every runtime loads, so
// the danger index and the shallow-capture bound have their production
// shape and not the empty-history special case.
func syntheticHistory(seed int64, n int) *signature.History {
	h := signature.NewHistory()
	for i := 0; h.Len() < n; i++ {
		h.Add(syntheticSignature(seed, i))
	}
	return h
}

func (w *workload) initOptions(histPath string) []dimmunix.Option {
	opts := []dimmunix.Option{dimmunix.WithHistory(histPath)}
	if w.threadTTL > 0 {
		opts = append(opts, dimmunix.WithThreadTTL(w.threadTTL))
	}
	return opts
}

// coldSetup times one cold start as a user pays it: create the default
// runtime from the history file, build the service, take every lock once.
// Shutdown is outside the clock.
func (w *workload) coldSetup(histPath string) (time.Duration, error) {
	// A process that starts cold has no garbage yet: collect the previous
	// set-up's, or whether a cycle lands inside the clock decides the time.
	runtime.GC()
	t0 := time.Now()
	if err := dimmunix.Init(w.initOptions(histPath)...); err != nil {
		return 0, err
	}
	svc := newDimmunixService(numCells, numRows)
	svc.touchAll()
	d := time.Since(t0)
	return d, dimmunix.Shutdown()
}

// sliceCmd starts one slice on a client goroutine.
type sliceCmd struct {
	deadline time.Time
	maxReq   int
	tr       *tracer
}

// clientPool is the set of long-lived client goroutines of a run. They
// live across slices, so svc_pool really is the warm-goroutine case.
type clientPool struct {
	clients []*client
	tracers []*tracer
	cmds    []chan sliceCmd
	done    chan struct{}
}

//go:noinline
func clientMain(c *client, cmds <-chan sliceCmd, done chan<- struct{}) {
	for cmd := range cmds {
		c.tr = cmd.tr
		c.run(cmd.deadline, cmd.maxReq)
		done <- struct{}{}
	}
	done <- struct{}{}
}

func newClientPool(w *workload, svc *service, n int, seed int64, stream int) *clientPool {
	p := &clientPool{done: make(chan struct{})}
	base := time.Now()
	for i := 0; i < n; i++ {
		c := &client{
			svc:               svc,
			rng:               rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*1009 + int64(i))),
			mode:              w.mode,
			rebalancePerMille: w.rebalancePerMille,
			lat:               make([]int64, 0, 1<<15),
		}
		p.clients = append(p.clients, c)
		p.tracers = append(p.tracers, newTracer(i, base))
		ch := make(chan sliceCmd)
		p.cmds = append(p.cmds, ch)
		go clientMain(c, ch, p.done)
	}
	return p
}

// stop ends the client goroutines and waits for them.
func (p *clientPool) stop() {
	for _, ch := range p.cmds {
		close(ch)
	}
	for range p.cmds {
		<-p.done
	}
}

// sliceResult is one slice's raw numbers.
type sliceResult struct {
	wall     time.Duration
	cpu      time.Duration
	reqs     int
	p50, p95 float64 // ns
}

// runSlice runs one slice on every client and waits for all of them. The
// slice ends at the deadline, or after maxReq requests per client if that
// is set. Latencies are sorted after the clocks stop.
func (p *clientPool) runSlice(d time.Duration, maxReq int, traced bool) sliceResult {
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(d)
	for i, ch := range p.cmds {
		cmd := sliceCmd{deadline: deadline, maxReq: maxReq}
		if traced {
			cmd.tr = p.tracers[i]
		}
		ch <- cmd
	}
	for range p.cmds {
		<-p.done
	}
	res := sliceResult{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	var lat []int64
	for _, c := range p.clients {
		lat = append(lat, c.lat...)
	}
	res.reqs = len(lat)
	res.p50 = durationPercentile(lat, 0.50)
	res.p95 = durationPercentile(lat, 0.95)
	return res
}

func (p *clientPool) counts() (started, finished, violated, updates int64) {
	for _, c := range p.clients {
		started += c.started.Load()
		finished += c.finished.Load()
		violated += c.violated.Load()
		updates += c.updates
	}
	return
}

// sliceSeries holds a run's per-slice values relative to the shadow slices
// on either side of each slice (see shadow.go).
type sliceSeries struct {
	relRate, relP50, relCPU []float64
	p95us, shadowP50us      []float64 // as measured: the slice's p95, the shadow's median request
}

func cpuPerReq(r sliceResult) float64 { return float64(r.cpu.Microseconds()) / float64(r.reqs) }
func ratePerS(r sliceResult) float64  { return float64(r.reqs) / r.wall.Seconds() }

// add records slice r, measured between shadow slices before and after.
// Everything is gauged by the shadow's median request: its rate halves when
// a shadow client is descheduled for part of a 0.1 s slice; its median moves
// with the host's regime and nothing else.
func (s *sliceSeries) add(r, before, after sliceResult) {
	if r.reqs == 0 || before.reqs == 0 || after.reqs == 0 {
		return
	}
	shadow := (before.p50 + after.p50) / 2 // ns
	s.relRate = append(s.relRate, ratePerS(r)*shadow)
	s.relP50 = append(s.relP50, r.p50/shadow)
	s.relCPU = append(s.relCPU, cpuPerReq(r)*1e3/shadow)
	s.p95us = append(s.p95us, r.p95/1e3)
	s.shadowP50us = append(s.shadowP50us, shadow/1e3)
}

// endToEnd fills the three steady-state end-to-end metrics: the median
// ratio to the shadow, scaled by the shadow's nominal quiet reading.
func (s *sliceSeries) endToEnd(m *metrics) {
	m.set("req_per_s", median(s.relRate)/(shadowNominalUs*1e3), "req/s")
	m.set("req_p50_us", median(s.relP50)*shadowNominalUs, "us")
	m.set("cpu_us_per_req", median(s.relCPU)*shadowNominalUs, "us")
}

// innermostIs reports whether the innermost frame of s is function name of
// this package (whatever import path the package was built under).
func innermostIs(s stack.Stack, name string) bool {
	return len(s) > 0 && strings.HasSuffix(s[0].Func, "."+name)
}

// immuneSignatures pairs every service call stack with every rebalance
// call stack among captured (§7.2.1's method: signatures from real program
// stacks), which includes the true deadlock signature {transfer's first
// lock, rebalance's first lock}. Stacks are deduplicated at the matching
// depth.
func immuneSignatures(captured []stack.Stack) []*signature.Signature {
	var service, rebalance []stack.Stack
	seen := make(map[uint64]bool)
	for _, s := range captured {
		h := s.HashAtDepth(historyDepth)
		if seen[h] {
			continue
		}
		switch {
		case innermostIs(s, "opRebalance"):
			rebalance = append(rebalance, s)
		case innermostIs(s, "opRead"), innermostIs(s, "opGet"), innermostIs(s, "opTransfer"), innermostIs(s, "opUpdate"):
			service = append(service, s)
		default:
			continue
		}
		seen[h] = true
	}
	var sigs []*signature.Signature
	for _, s := range service {
		for _, r := range rebalance {
			sig := signature.New(signature.Deadlock, []stack.Stack{s, r}, historyDepth)
			sig.CreatedUnix = 1
			sigs = append(sigs, sig)
		}
	}
	return sigs
}

// discoverImmuneHistory runs the workload's own traffic on one client —
// alone it cannot deadlock — so that every op's lock sites are captured from
// the call stacks the measured run will have, then adds the pair signatures
// to the history file.
func (w *workload) discoverImmuneHistory(histPath string, seed int64) (int, error) {
	if err := dimmunix.Init(w.initOptions(histPath)...); err != nil {
		return 0, err
	}
	svc := newDimmunixService(numCells, numRows)
	probe := *w
	probe.rebalancePerMille = 500
	pool := newClientPool(&probe, svc, 1, seed, 7)
	pool.runSlice(time.Minute, 400, false)
	pool.stop()
	captured := dimmunix.Default().CapturedStacks()
	if err := dimmunix.Shutdown(); err != nil {
		return 0, err
	}
	sigs := immuneSignatures(captured)
	hist, err := signature.Load(histPath)
	if err != nil {
		return 0, err
	}
	for _, sig := range sigs {
		hist.Add(sig)
	}
	return len(sigs), hist.SaveTo(histPath)
}

// svcRun is the state of one svc_* run between set-up and tear-down.
type svcRun struct {
	w        *workload
	histPath string
	loaded   map[string]bool // IDs of the signatures in the history file
	setups   []float64       // cold set-up time relative to the echo's round trip
	svc      *service
	pool     *clientPool
	gauge    *gauge      // all clients on the shadow, read around every slice
	lastRead sliceResult // the shadow slice that closed the previous slice
	liveMax  int
}

// setupBatch is how many cold set-ups share one pair of echo readings.
const setupBatch = 10

// prepareSvc writes the history file, measures the cold set-ups, and leaves
// the default runtime up with a warm service and its client goroutines.
func prepareSvc(w *workload, seed int64, setups int, outDir string) (*svcRun, error) {
	r := &svcRun{w: w, histPath: outDir + "/history-" + w.name + ".json"}
	if err := syntheticHistory(seed, historySigs).SaveTo(r.histPath); err != nil {
		return nil, err
	}
	if w.rebalancePerMille > 0 {
		n, err := w.discoverImmuneHistory(r.histPath, seed)
		if err != nil {
			return nil, err
		}
		// Five service lock sites (read, get, transfer's two, update) times
		// rebalance's two.
		if n != 10 {
			return nil, fmt.Errorf("%s: discovery built %d pair signatures, want 10", w.name, n)
		}
	}
	// A cold set-up is mostly decoding the history file, so set-ups are read
	// against the echo (echo.go), once per batch.
	echo, err := newEchoGauge(syntheticHistory(seed, historySigs))
	if err != nil {
		return nil, err
	}
	defer echo.stop()
	if _, err := echo.read(); err != nil { // first connection
		return nil, err
	}
	before, err := echo.read()
	if err != nil {
		return nil, err
	}
	for done := 0; done < setups; done += setupBatch {
		var batch []float64
		for i := 0; i < setupBatch; i++ {
			d, err := w.coldSetup(r.histPath)
			if err != nil {
				return nil, err
			}
			batch = append(batch, float64(d))
		}
		after, err := echo.read()
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, median(batch)/((before+after)/2))
		before = after
	}
	hist, err := signature.Load(r.histPath)
	if err != nil {
		return nil, err
	}
	r.loaded = make(map[string]bool)
	for _, id := range hist.SortedIDs() {
		r.loaded[id] = true
	}
	if err := dimmunix.Init(w.initOptions(r.histPath)...); err != nil {
		return nil, err
	}
	r.svc = newDimmunixService(numCells, numRows)
	r.svc.touchAll()
	r.pool = newClientPool(w, r.svc, numClients, seed, 0)
	liveClients.Store(&r.pool.clients)
	r.gauge = newGauge(numClients, seed)
	r.lastRead = r.gauge.read(shadowSlice)
	return r, nil
}

// setupSeconds is setup_s: the median set-up-to-echo ratio at the echo's
// nominal quiet reading.
func (r *svcRun) setupSeconds() float64 {
	return median(r.setups) * echoNominalUs / 1e6
}

// slice runs one slice of the workload and the shadow slice that closes it,
// adds both to series (nil for a warm-up slice), and tracks the live-thread
// high-water mark.
func (r *svcRun) slice(series *sliceSeries, traced bool) sliceResult {
	res := r.pool.runSlice(sliceLength, 0, traced)
	if n := dimmunix.Default().NumThreads(); n > r.liveMax {
		r.liveMax = n
	}
	after := r.gauge.read(shadowSlice)
	if series != nil {
		series.add(res, r.lastRead, after)
	}
	r.lastRead = after
	return res
}

// check verifies the run's invariants against the quiesced service and the
// runtime's counters. Each violated invariant is one line.
func (r *svcRun) check(st dimmunix.Stats) []string {
	var bad []string
	started, finished, violated, updates := r.pool.counts()
	if started != finished {
		bad = append(bad, fmt.Sprintf("%d requests did not complete", started-finished))
	}
	if violated != 0 {
		bad = append(bad, fmt.Sprintf("catalog went backwards %d times", violated))
	}
	if got, want := r.svc.cellSum(), int64(numCells*cellBalance); got != want {
		bad = append(bad, fmt.Sprintf("cell sum %d, want %d", got, want))
	}
	if got := r.svc.verSum(); got != updates {
		bad = append(bad, fmt.Sprintf("catalog versions sum to %d, %d updates were applied", got, updates))
	}
	if st.DeadlocksDetected != 0 {
		bad = append(bad, fmt.Sprintf("%d deadlocks detected", st.DeadlocksDetected))
	}
	if r.w.rebalancePerMille == 0 {
		if st.Yields != 0 {
			bad = append(bad, fmt.Sprintf("%d yields on a workload with no dangerous call site", st.Yields))
		}
		return bad
	}
	if st.Yields == 0 {
		bad = append(bad, "no yields: the immunity did no work")
	}
	ids := make([]string, 0, len(st.YieldsBySignature))
	for id := range st.YieldsBySignature {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if !r.loaded[id] {
			bad = append(bad, "yield attributed to signature "+id+", which was not loaded")
		}
	}
	if float64(st.GuardedAcquired) < 0.8*float64(st.Acquired) {
		bad = append(bad, fmt.Sprintf("guarded tier took %d of %d acquisitions, want at least 80%%", st.GuardedAcquired, st.Acquired))
	}
	return bad
}

// finish stops the clients and shuts the default runtime down.
func (r *svcRun) finish() error {
	r.pool.stop()
	r.gauge.stop()
	liveClients.Store(nil)
	return dimmunix.Shutdown()
}
