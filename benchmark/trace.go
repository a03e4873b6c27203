package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Spans are recorded by the benchmark itself, around its calls into the
// facade: one root span per request and one child per facade call. Spans
// inside the program under test are a later issue.

type spanKind uint8

const (
	spanRequest spanKind = iota
	spanLock
	spanUnlock
	spanRLock
	spanRUnlock
	spanWLock
	spanWUnlock
	spanSyncNow
	spanHistoryAdd
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"request", "lock", "unlock", "rlock", "runlock", "wlock", "wunlock", "syncnow", "history.add",
}

// span is one traced interval. Parent is 0 for a request root; a child
// names its request. Times are nanoseconds since the tracer's base.
type span struct {
	ID, Parent uint64
	Start, End int64
	Kind       spanKind
	Client     uint8
	Ops        [opsPerRequest]byte // request roots only: the op mix
}

// ringSpans bounds the spans kept per client for the trace file; every
// duration is still counted in tracer.dur.
const ringSpans = 1 << 14

// tracer is one client's span recorder. A nil *tracer is tracing switched
// off: start and end cost a nil check, so the traced and untraced runs
// execute the same op functions from the same call sites. It is owned by
// one client; a request goroutine that client spawns and joins may use it.
type tracer struct {
	client uint8
	base   time.Time
	ring   []span
	n      uint64 // spans recorded so far; ring[n%len] is the next slot
	seq    uint64
	cur    uint64 // open request root, 0 between requests
	curT0  int64
	dur    [nSpanKinds][]int64
}

func newTracer(client int, base time.Time) *tracer {
	t := &tracer{client: uint8(client), base: base, ring: make([]span, ringSpans)}
	for k := range t.dur {
		t.dur[k] = make([]int64, 0, 1<<16)
	}
	return t
}

func (t *tracer) push(s span) {
	t.ring[t.n%uint64(len(t.ring))] = s
	t.n++
	t.dur[s.Kind] = append(t.dur[s.Kind], s.End-s.Start)
}

func (t *tracer) newID() uint64 {
	t.seq++
	return uint64(t.client+1)<<48 | t.seq
}

// start returns the current trace time (0 when tracing is off).
func (t *tracer) start() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// end records a child span of the open request that began at t0.
func (t *tracer) end(kind spanKind, t0 int64) {
	if t == nil {
		return
	}
	t.push(span{ID: t.newID(), Parent: t.cur, Start: t0, End: int64(time.Since(t.base)), Kind: kind, Client: t.client})
}

func (t *tracer) beginRequest() {
	if t == nil {
		return
	}
	t.cur = t.newID()
	t.curT0 = int64(time.Since(t.base))
}

func (t *tracer) endRequest(ops [opsPerRequest]byte) {
	if t == nil {
		return
	}
	t.push(span{ID: t.cur, Start: t.curT0, End: int64(time.Since(t.base)), Kind: spanRequest, Client: t.client, Ops: ops})
	t.cur = 0
}

// spans returns the ring's content oldest first, cut so that every
// request root in it still has all of its children (a root is recorded
// after its children, so only the oldest root can have lost some).
func (t *tracer) spans() []span {
	size := uint64(len(t.ring))
	if t.n <= size {
		return t.ring[:t.n]
	}
	out := make([]span, 0, size)
	for i := t.n - size; i < t.n; i++ {
		out = append(out, t.ring[i%size])
	}
	for i, s := range out {
		if s.Kind == spanRequest {
			return out[i+1:]
		}
	}
	return nil
}

// selfTimes returns, for every request root in spans, its duration minus
// the part of that interval its child spans cover (children of one request
// run one after another, so their durations add up).
func selfTimes(spans []span) map[uint64]int64 {
	self := make(map[uint64]int64)
	for _, s := range spans {
		if s.Kind == spanRequest {
			self[s.ID] += s.End - s.Start
		}
	}
	for _, s := range spans {
		if s.Kind == spanRequest {
			continue
		}
		if _, ok := self[s.Parent]; ok {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// orphans counts child spans whose parent request is not in spans.
func orphans(spans []span) int {
	roots := make(map[uint64]bool)
	for _, s := range spans {
		if s.Kind == spanRequest {
			roots[s.ID] = true
		}
	}
	n := 0
	for _, s := range spans {
		if s.Kind != spanRequest && !roots[s.Parent] {
			n++
		}
	}
	return n
}

// mergeSpans gathers every tracer's retained spans in start order.
func mergeSpans(trs []*tracer) []span {
	var all []span
	for _, t := range trs {
		all = append(all, t.spans()...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// durations pools one span kind's durations across tracers.
func durations(trs []*tracer, kind spanKind) []int64 {
	var all []int64
	for _, t := range trs {
		all = append(all, t.dur[kind]...)
	}
	return all
}

// writeTrace writes spans as a JSON array, one span a line.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "[")
	for i, s := range spans {
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"name":%q,"client":%d,"start_ns":%d,"end_ns":%d`,
			s.ID, s.Parent, spanNames[s.Kind], s.Client, s.Start, s.End)
		if ops := strings.TrimRight(string(s.Ops[:]), "\x00"); ops != "" {
			fmt.Fprintf(w, `,"ops":%q`, ops)
		}
		fmt.Fprintf(w, "}%s\n", sep)
	}
	fmt.Fprintln(w, "]")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
