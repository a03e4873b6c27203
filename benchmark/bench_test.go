package main

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dimmunix"
	"dimmunix/internal/signature"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileFixtures(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.25, 20}, {0.5, 30}, {0.75, 40}, {1, 50},
		{0.1, 14}, // 0.1*4 = 0.4 of the way from 10 to 20
		{0.9, 46},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64(nil), 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Quartiles of 1..8 by linear interpolation: positions 1.75 and 5.25.
	series := []float64{8, 1, 7, 2, 6, 3, 5, 4}
	if got := quietLow(series); !near(got, 2.75) {
		t.Errorf("quietLow = %v, want 2.75", got)
	}
	if got := quietHigh(series); !near(got, 6.25) {
		t.Errorf("quietHigh = %v, want 6.25", got)
	}
	if series[0] != 8 {
		t.Error("quantileOf sorted its argument in place")
	}
	ns := []int64{400, 100, 300, 200}
	if got := durationPercentile(ns, 0.5); !near(got, 250) {
		t.Errorf("durationPercentile p50 = %v, want 250", got)
	}
	if got := durationPercentile(ns, 0.95); !near(got, 385) {
		t.Errorf("durationPercentile p95 = %v, want 385", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// Request 1 lasts 100 with children of 10, 5 and 20: self 65.
	// Request 2 lasts 50 with no children: self 50.
	// The child of request 9 has no root here: it is an orphan.
	spans := []span{
		{ID: 11, Parent: 1, Start: 0, End: 10, Kind: spanLock},
		{ID: 12, Parent: 1, Start: 40, End: 45, Kind: spanUnlock},
		{ID: 13, Parent: 1, Start: 50, End: 70, Kind: spanRLock},
		{ID: 1, Start: 0, End: 100, Kind: spanRequest},
		{ID: 2, Start: 100, End: 150, Kind: spanRequest},
		{ID: 91, Parent: 9, Start: 0, End: 7, Kind: spanLock},
	}
	self := selfTimes(spans)
	if len(self) != 2 || self[1] != 65 || self[2] != 50 {
		t.Errorf("selfTimes = %v, want map[1:65 2:50]", self)
	}
	if got := orphans(spans); got != 1 {
		t.Errorf("orphans = %d, want 1", got)
	}
}

func TestTracerRingKeepsWholeRequests(t *testing.T) {
	tr := newTracer(0, time.Now())
	tr.ring = make([]span, 10)
	// Requests of three spans each (two children, then the root): after
	// seven of them the ring has wrapped in the middle of a request.
	for i := 0; i < 7; i++ {
		tr.beginRequest()
		tr.end(spanLock, tr.start())
		tr.end(spanUnlock, tr.start())
		tr.endRequest([opsPerRequest]byte{kindGet})
	}
	spans := tr.spans()
	if len(spans) == 0 || len(spans)%3 != 0 {
		t.Fatalf("ring returned %d spans, want whole requests of 3", len(spans))
	}
	if n := orphans(spans); n != 0 {
		t.Errorf("%d orphans after the ring wrapped", n)
	}
	if got := len(tr.dur[spanRequest]); got != 7 {
		t.Errorf("durations kept for %d requests, want all 7", got)
	}
	var off *tracer
	off.beginRequest()
	off.end(spanLock, off.start())
	off.endRequest([opsPerRequest]byte{}) // a nil tracer is tracing off
}

func TestSitesTreeYieldsThousandStacks(t *testing.T) {
	w := &svcWorkloads[2]
	if w.name != "svc_sites" {
		t.Fatalf("svcWorkloads[2] is %s", w.name)
	}
	p := probeWorkload(w, syntheticHistory(1, historySigs), 1, 3000)
	if got := p.interner.Len(); got < 1000 {
		t.Errorf("svc_sites reached %d distinct call stacks, want at least 1000", got)
	}
	pool := probeWorkload(&svcWorkloads[0], syntheticHistory(1, historySigs), 1, 500)
	if got := pool.interner.Len(); got >= 50 {
		t.Errorf("svc_pool reached %d distinct call stacks, want fewer than 50", got)
	}
}

// inversionTraffic runs svc_immune's traffic, sharpened to 4 cells and 50%
// rebalances, on two callers until stop returns true. A caller whose Lock is
// unwound by deadlock recovery ends; the count of those is returned.
func inversionTraffic(stop func() bool) int64 {
	svc := newDimmunixService(4, numRows)
	var wg sync.WaitGroup
	var unwound atomic.Int64
	for i := 0; i < 2; i++ {
		c := &client{svc: svc, rng: rand.New(rand.NewSource(int64(i) + 1)), mode: modeInline, rebalancePerMille: 500}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				v := recover()
				if v == nil {
					return
				}
				if err, ok := v.(error); ok && errors.Is(err, dimmunix.ErrDeadlockRecovered) {
					unwound.Add(1)
					return
				}
				panic(v)
			}()
			for !stop() {
				c.request()
			}
		}()
	}
	wg.Wait()
	return unwound.Load()
}

// The negative control: without a history the workload's inversion is a real
// deadlock, found within seconds.
func TestInversionDeadlocksWithoutHistory(t *testing.T) {
	if err := dimmunix.Init(dimmunix.WithAbortRecovery(), dimmunix.WithTau(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	defer dimmunix.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	unwound := inversionTraffic(func() bool {
		return dimmunix.Default().Stats().DeadlocksDetected > 0 || time.Now().After(deadline)
	})
	st := dimmunix.Default().Stats()
	if st.DeadlocksDetected == 0 {
		t.Fatal("50% rebalances on 4 cells with no history did not deadlock within 5 s: the inversion is not real")
	}
	if unwound == 0 {
		t.Error("a deadlock was detected but no caller was unwound")
	}
}

// The same traffic with the pair signatures loaded completes.
func TestInversionAvoidedWithHistory(t *testing.T) {
	histPath := filepath.Join(t.TempDir(), "history.json")
	if err := signature.NewHistory().SaveTo(histPath); err != nil {
		t.Fatal(err)
	}
	w := svcWorkloads[3]
	if w.name != "svc_immune" {
		t.Fatalf("svcWorkloads[3] is %s", w.name)
	}
	if _, err := w.discoverImmuneHistory(histPath, 1); err != nil {
		t.Fatal(err)
	}
	if err := dimmunix.Init(dimmunix.WithHistory(histPath), dimmunix.WithTau(5*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	defer dimmunix.Shutdown()
	// The signatures match at depth 4, so the traffic must come through the
	// client pool, as it did when they were discovered.
	w.rebalancePerMille = 500
	pool := newClientPool(&w, newDimmunixService(4, numRows), 2, 1, 0)
	done := make(chan sliceResult, 1)
	go func() { done <- pool.runSlice(time.Minute, 500, false) }()
	select {
	case res := <-done:
		if res.reqs != 1000 {
			t.Errorf("%d requests completed, want 1000", res.reqs)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("traffic wedged with the signatures loaded")
	}
	pool.stop()
	st := dimmunix.Default().Stats()
	if st.DeadlocksDetected != 0 {
		t.Errorf("%d deadlocks detected with the signatures loaded", st.DeadlocksDetected)
	}
	if st.Yields == 0 {
		t.Error("no yields: the history did no work")
	}
}

// BENCHMARK.json lies outside the benchmark's directory, so the program never
// reads it; this keeps the two in step wherever the whole repository is
// checked out.
func TestContractMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json above the benchmark's directory")
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	whys := map[string]string{"fleet_sync": fleetWhy}
	for _, w := range svcWorkloads {
		whys[w.name] = w.why
	}
	if len(doc.Workloads) != len(whys) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(whys))
	}
	for _, w := range doc.Workloads {
		if whys[w.Name] != w.Why {
			t.Errorf("workload %s: rationale differs from the program's", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEndBounds) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program has %d", len(doc.EndToEnd), len(endToEndBounds))
	}
	for _, m := range doc.EndToEnd {
		if b, ok := endToEndBounds[m.Name]; !ok || b != m.Bound {
			t.Errorf("end-to-end metric %s: bound %v in BENCHMARK.json, %v in the program", m.Name, m.Bound, b)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if l := perLayer[i]; l.name != m.Name || l.unit != m.Unit || l.better != m.Better {
			t.Errorf("per-layer metric %d: %v in BENCHMARK.json, %v in the program", i, m, l)
		}
	}
}
