package main

import (
	"fmt"
	"slices"
)

// This file mirrors BENCHMARK.json at the root of the repository, which the
// benchmark never reads (it lies outside the benchmark's directory); a test
// keeps the two in step.

// endToEndBounds: the share of the parent's median by which each end-to-end
// metric may get worse before a change is rejected.
var endToEndBounds = map[string]float64{
	"setup_s":        0.20,
	"req_per_s":      0.10,
	"req_p50_us":     0.10,
	"cpu_us_per_req": 0.10,
}

type layerMetric struct{ name, unit, better string }

// perLayer is every metric a traced run reports, on every workload.
var perLayer = []layerMetric{
	{"facade.lock_ns", "ns", "lower"},
	{"facade.unlock_ns", "ns", "lower"},
	{"facade.rlock_ns", "ns", "lower"},
	{"facade.runlock_ns", "ns", "lower"},
	{"facade.wlock_ns", "ns", "lower"},
	{"facade.wunlock_ns", "ns", "lower"},
	{"facade.lock_p99_ns", "ns", "lower"},
	{"facade.req_p95_us", "us", "lower"},
	{"facade.req_p99_us", "us", "lower"},
	{"facade.req_self_us", "us", "lower"},
	{"facade.syncnow_us", "us", "lower"},
	{"facade.history_add_us", "us", "lower"},
	{"facade.bind_ns", "ns", "lower"},
	{"facade.allocs_per_req", "count", "lower"},
	{"facade.bytes_per_req", "B", "lower"},
	{"floor.sync_req_us", "us", "lower"},
	{"floor.sync_req_per_s", "req/s", "higher"},
	{"gid.current_ns", "ns", "lower"},
	{"gid.current_deep_ns", "ns", "lower"},
	{"stack.capture_shallow_ns", "ns", "lower"},
	{"stack.capture_full_ns", "ns", "lower"},
	{"stack.pccache_hit_ns", "ns", "lower"},
	{"stack.intern_ns", "ns", "lower"},
	{"stack.pccache_len", "count", "lower"},
	{"stack.interner_len", "count", "lower"},
	{"core.lockt_pair_ns", "ns", "lower"},
	{"core.rlockt_pair_ns", "ns", "lower"},
	{"core.current_thread_ns", "ns", "lower"},
	{"core.register_thread_ns", "ns", "lower"},
	{"core.threads_live_max", "count", "lower"},
	{"core.thread_prunes", "count", "lower"},
	{"core.thread_bytes_live", "B", "lower"},
	{"core.fast_share", "share", "higher"},
	{"core.guarded_share", "share", "lower"},
	{"core.events_per_req", "count", "lower"},
	{"avoidance.fast_ns", "ns", "lower"},
	{"avoidance.request_ns", "ns", "lower"},
	{"avoidance.classify_ns", "ns", "lower"},
	{"avoidance.yields_per_mreq", "count", "lower"},
	{"avoidance.yield_p50_us", "us", "lower"},
	{"avoidance.delay_us_per_req", "us", "lower"},
	{"event.buffer_add_ns", "ns", "lower"},
	{"queue.push_ns", "ns", "lower"},
	{"queue.drain_ns_per_event", "ns", "lower"},
	{"rag.apply_ns", "ns", "lower"},
	{"rag.detect_us", "us", "lower"},
	{"monitor.pass_us", "us", "lower"},
	{"monitor.passes", "count", "lower"},
	{"signature.load_ms", "ms", "lower"},
	{"signature.unmarshal_us", "us", "lower"},
	{"signature.marshal_us", "us", "lower"},
	{"signature.merge_us", "us", "lower"},
	{"signature.add_reindex_us", "us", "lower"},
	{"signature.dangerous_ns", "ns", "lower"},
	{"histstore.http_push_us", "us", "lower"},
	{"histstore.http_load_us", "us", "lower"},
	{"histstore.http_probe_us", "us", "lower"},
	{"histstore.file_push_us", "us", "lower"},
	{"histstore.dir_push_us", "us", "lower"},
	{"histstore.sync_idle_us", "us", "lower"},
	{"obs.publish_idle_ns", "ns", "lower"},
	{"proc.rss_peak_mb", "MB", "lower"},
	{"proc.gc_cpu_share", "share", "lower"},
	{"bench.trace_overhead_share", "share", "lower"},
	{"bench.ref_p50_us", "us", "lower"},
}

// layerUnit is the unit perLayer gives name ("" if it has none).
func layerUnit(name string) string {
	for _, l := range perLayer {
		if l.name == name {
			return l.unit
		}
	}
	return ""
}

// checkPerLayer reports how a traced run's metrics differ from perLayer.
func checkPerLayer(m *metrics) []string {
	var bad []string
	want := make(map[string]string, len(perLayer))
	for _, l := range perLayer {
		want[l.name] = l.unit
		if v, ok := m.byName[l.name]; !ok {
			bad = append(bad, "per-layer metric "+l.name+" was not measured")
		} else if v.Unit != l.unit {
			bad = append(bad, fmt.Sprintf("per-layer metric %s has unit %s, want %s", l.name, v.Unit, l.unit))
		}
	}
	names := slices.Clone(m.names)
	slices.Sort(names)
	for _, name := range names {
		if _, ok := want[name]; !ok {
			bad = append(bad, "metric "+name+" is not in the per-layer list")
		}
	}
	return bad
}
