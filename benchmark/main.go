// Command benchmark is the repository's end-to-end and per-layer benchmark
// of the drop-in surface: dimmunix.Mutex, dimmunix.RWMutex, Init/Shutdown
// and NewRuntime with a history store. See README.md for the workloads,
// the metrics and how they interact.
//
//	go run -C benchmark . --workload svc_pool --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"dimmunix"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps metrics in the order they were set, for printing.
type metrics struct {
	names  []string
	byName map[string]metricValue
}

func (m *metrics) set(name string, v float64, unit string) {
	if m.byName == nil {
		m.byName = make(map[string]metricValue)
	}
	if _, ok := m.byName[name]; !ok {
		m.names = append(m.names, name)
	}
	m.byName[name] = metricValue{Value: v, Unit: unit}
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is one workload run before it is printed.
type outcome struct {
	workload  string
	attempted int64
	failed    int64
	problems  []string // violated checks; empty means correct
	metrics   metrics
	// refUs is the reference's median reading over an untraced run and
	// refNominalUs its nominal: printed so that a reader can tell which host
	// regime the run saw. A traced run reports it as bench.ref_p50_us.
	refUs, refNominalUs float64
}

// numClients is the closed-loop callers of every workload: never more than
// the machine has processors.
var numClients = min(runtime.NumCPU(), 4)

type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
}

// slices is how many measured slices a run of cfg.seconds holds.
func (c runConfig) slices() int {
	n := int(c.seconds / (sliceLength + shadowSlice).Seconds())
	if n < 4 {
		n = 4
	}
	return n
}

// envStamp identifies where a number was measured. It is printed with every
// run; a number without it is not comparable to anything.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	BuildTags  string `json:"build_tags"`
	Clients    int    `json:"clients"`
}

func stampEnv() envStamp {
	e := envStamp{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Commit:     "unknown",
		Clients:    numClients,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "-tags":
				e.BuildTags = s.Value
			}
		}
	}
	return e
}

// The watchdog's view of the run in flight.
var (
	liveClients atomic.Pointer[[]*client]
	liveRuntime atomic.Pointer[dimmunix.Runtime]
	liveRounds  atomic.Int64 // fleet rounds in flight
)

// startWatchdog bounds a run: a hang is a reported failure, never a stuck
// pipeline. On expiry the requests still in flight are counted failed,
// goroutine stacks and runtime counters go to outDir, and the process exits
// non-zero.
func startWatchdog(limit time.Duration, outDir, name string) *time.Timer {
	return time.AfterFunc(limit, func() {
		var started, finished int64
		if cs := liveClients.Load(); cs != nil {
			for _, c := range *cs {
				started += c.started.Load()
				finished += c.finished.Load()
			}
		}
		inflight := started - finished + liveRounds.Load()
		_ = os.MkdirAll(outDir, 0o755)
		buf := make([]byte, 16<<20)
		buf = buf[:runtime.Stack(buf, true)]
		_ = os.WriteFile(filepath.Join(outDir, "hang-"+name+"-goroutines.txt"), buf, 0o644)
		if rt := liveRuntime.Load(); rt != nil {
			if data, err := json.MarshalIndent(rt.Stats(), "", "  "); err == nil {
				_ = os.WriteFile(filepath.Join(outDir, "hang-"+name+"-stats.json"), data, 0o644)
			}
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded its %v deadline: attempted %d, failed %d (in flight); dumps in %s\n",
			name, limit, started, inflight, outDir)
		os.Exit(3)
	})
}

func runWorkload(name string, cfg runConfig) (*outcome, error) {
	limit := time.Duration(2 * (cfg.seconds + 10) * float64(time.Second))
	wd := startWatchdog(limit, cfg.outDir, name)
	defer wd.Stop()
	if name == "fleet_sync" {
		if cfg.traced {
			return runFleetTraced(cfg)
		}
		return runFleet(cfg)
	}
	for i := range svcWorkloads {
		if w := &svcWorkloads[i]; w.name == name {
			if cfg.traced {
				return runSvcTraced(w, cfg)
			}
			return runSvc(w, cfg)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	var names []string
	for _, w := range svcWorkloads {
		names = append(names, w.name)
	}
	return append(names, "fleet_sync")
}

// runSvc is an untraced svc_* run: set-up block, one warm-up slice, then the
// measured slices, each closed by a shadow slice.
func runSvc(w *workload, cfg runConfig) (*outcome, error) {
	r, err := prepareSvc(w, cfg.seed, coldSetups, cfg.outDir)
	if err != nil {
		return nil, err
	}
	liveRuntime.Store(dimmunix.Default())
	r.slice(nil, false)
	var series sliceSeries
	for i := 0; i < cfg.slices(); i++ {
		r.slice(&series, false)
	}
	st := dimmunix.Default().Stats()
	out := &outcome{workload: w.name, problems: r.check(st)}
	started, finished, violated, _ := r.pool.counts()
	out.attempted = started
	out.failed = started - finished + violated
	liveRuntime.Store(nil)
	if err := r.finish(); err != nil {
		return nil, err
	}
	out.metrics.set("setup_s", r.setupSeconds(), "s")
	series.endToEnd(&out.metrics)
	out.refUs, out.refNominalUs = median(series.shadowP50us), shadowNominalUs
	return out, nil
}

func (o *outcome) print(cfg runConfig) {
	fmt.Printf("workload %s seed %d seconds %g trace %v clients %d\n", o.workload, cfg.seed, cfg.seconds, cfg.traced, numClients)
	for _, name := range o.metrics.names {
		v := o.metrics.byName[name]
		fmt.Printf("  %-32s %16.4f %s\n", name, v.Value, v.Unit)
	}
	if o.refUs > 0 {
		fmt.Printf("  reference read %.1f us in this run, nominal %.1f us\n", o.refUs, o.refNominalUs)
	}
	fmt.Printf("  attempted %d failed %d\n", o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
}

func (o *outcome) correct() bool { return len(o.problems) == 0 && o.failed == 0 }

func main() {
	var (
		workloadFlag = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (default: all of them)")
		seed         = flag.Int64("seed", 1, "input seed: 1 is the development seed, 2 the held-out seed claims must also hold on")
		seconds      = flag.Float64("seconds", 20, "how long a run measures")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run and the ladder")
		repeat       = flag.Int("repeat", 0, "run the untraced suite N times and print min/median/max per workload and metric")
		jsonOut      = flag.Bool("json", false, "also print the full report (environment, every metric) as one JSON document")
		outDir       = flag.String("out", "out", "directory for history files, trace files and watchdog dumps")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	// The program under test sees only what this benchmark hands it.
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); strings.HasPrefix(k, "DIMMUNIX_") {
			os.Unsetenv(k)
		}
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace != 0, outDir: *outDir}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fatal(err)
	}
	env := stampEnv()
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)

	names := workloadNames()
	if *workloadFlag != "" {
		names = []string{*workloadFlag}
	}
	if *repeat > 0 {
		if !runRepeat(names, cfg, *repeat) {
			os.Exit(1)
		}
		return
	}

	res := result{Correct: true, Metrics: make(map[string]metricValue)}
	report := map[string]any{"env": env, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.traced}
	for _, name := range names {
		o, err := runWorkload(name, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if cfg.traced {
			o.problems = append(o.problems, checkPerLayer(&o.metrics)...)
		}
		o.print(cfg)
		res.Correct = res.Correct && o.correct()
		res.Attempted += o.attempted
		res.Failed += o.failed
		prefix := ""
		if len(names) > 1 {
			prefix = name + "."
		}
		for n, v := range o.metrics.byName {
			res.Metrics[prefix+n] = v
		}
		report[name] = map[string]any{"attempted": o.attempted, "failed": o.failed, "problems": o.problems, "metrics": o.metrics.byName}
	}
	if *jsonOut {
		doc, _ := json.MarshalIndent(report, "", "  ")
		fmt.Printf("%s\n", doc)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}

// runRepeat runs the untraced suite n times and reports, per workload and
// end-to-end metric, min / median / max and (max - min) / median next to
// the metric's bound. It reports whether every run passed its checks.
func runRepeat(names []string, cfg runConfig, n int) bool {
	cfg.traced = false
	values := make(map[string]map[string][]float64)
	ok := true
	for i := 0; i < n; i++ {
		for _, name := range names {
			o, err := runWorkload(name, cfg)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			if !o.correct() {
				ok = false
				o.print(cfg)
			}
			if values[name] == nil {
				values[name] = make(map[string][]float64)
			}
			for m, v := range o.metrics.byName {
				values[name][m] = append(values[name][m], v.Value)
			}
			fmt.Printf("run %d/%d %s: attempted %d failed %d, reference read %.1f us\n", i+1, n, name, o.attempted, o.failed, o.refUs)
		}
	}
	fmt.Printf("\n| workload | metric | min | median | max | (max-min)/median | bound | |\n| --- | --- | --- | --- | --- | --- | --- | --- |\n")
	for _, name := range names {
		ms := make([]string, 0, len(values[name]))
		for m := range values[name] {
			ms = append(ms, m)
		}
		sort.Strings(ms)
		for _, m := range ms {
			xs := values[name][m]
			sort.Float64s(xs)
			med := percentile(xs, 0.5)
			spread := (xs[len(xs)-1] - xs[0]) / med
			flag := ""
			if spread > endToEndBounds[m] {
				flag = "OVER"
			}
			fmt.Printf("| %s | %s | %.4g | %.4g | %.4g | %.3f | %.2f | %s |\n", name, m, xs[0], med, xs[len(xs)-1], spread, endToEndBounds[m], flag)
		}
	}
	return ok
}
