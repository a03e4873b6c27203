// Tests for the drop-in surface: zero-value Mutex/RWMutex bound to the
// process-wide default Runtime, Init/Shutdown, functional options, env
// configuration, and context-aware acquisition. Everything goes through
// the facade the way a downstream user would.
package dimmunix_test

import (
	"context"
	"errors"
	"go/build/constraint"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dimmunix"
)

// The drop-in types must satisfy sync.Locker (and RLocker must exist).
var (
	_ sync.Locker = (*dimmunix.Mutex)(nil)
	_ sync.Locker = (*dimmunix.RWMutex)(nil)
	_ sync.Locker = (*dimmunix.RWMutex)(nil).RLocker()
)

// initDefault resets the default runtime to a fresh one with test-friendly
// settings plus the given options, and tears it down at test end.
func initDefault(t *testing.T, opts ...dimmunix.Option) {
	t.Helper()
	if err := dimmunix.Shutdown(); err != nil {
		t.Fatalf("pre-test Shutdown: %v", err)
	}
	base := []dimmunix.Option{
		dimmunix.WithTau(2 * time.Millisecond),
		dimmunix.WithMatchDepth(2),
		dimmunix.WithMaxYield(5 * time.Second),
	}
	if err := dimmunix.Init(append(base, opts...)...); err != nil {
		t.Fatalf("Init: %v", err)
	}
	t.Cleanup(func() { dimmunix.Shutdown() })
}

func TestZeroValueMutexBindsOnFirstLock(t *testing.T) {
	initDefault(t)
	rt := dimmunix.Default()
	before := rt.Stats().Acquired

	var mu dimmunix.Mutex // zero value, never constructed
	mu.Lock()
	mu.Unlock()

	if got := rt.Stats().Acquired; got != before+1 {
		t.Fatalf("acquired = %d, want %d: zero-value Lock did not register with the default runtime", got, before+1)
	}
	if mu.Core().ID() == 0 {
		t.Fatal("bound mutex has no lock ID")
	}
	// The binding is stable: Core() returns the same underlying mutex.
	if mu.Core() != mu.Core() {
		t.Fatal("Core() rebinds")
	}
}

func TestZeroValueRWMutexBindsOnFirstUse(t *testing.T) {
	initDefault(t)
	rt := dimmunix.Default()
	before := rt.Stats().SharedAcquired

	var rw dimmunix.RWMutex
	rw.RLock()
	if rt.Stats().SharedAcquired != before+1 {
		t.Fatal("RLock did not record a shared acquisition")
	}
	if n := rw.Core().ReaderCount(); n != 1 {
		t.Fatalf("ReaderCount = %d, want 1", n)
	}
	rw.RUnlock()
	rw.Lock()
	rw.Unlock()
}

func TestInitIdempotencyAndRace(t *testing.T) {
	if err := dimmunix.Shutdown(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dimmunix.Shutdown() })

	const n = 16
	errs := make([]error, n)
	var wg sync.WaitGroup
	var locked sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = dimmunix.Init(dimmunix.WithTau(3 * time.Millisecond))
		}(i)
	}
	// Zero-value first use racing with Init must also be safe.
	locked.Add(1)
	go func() {
		defer locked.Done()
		var mu dimmunix.Mutex
		mu.Lock()
		mu.Unlock()
	}()
	wg.Wait()
	locked.Wait()

	winners := 0
	for _, err := range errs {
		switch {
		case err == nil:
			winners++
		case errors.Is(err, dimmunix.ErrInitialized):
		default:
			t.Fatalf("unexpected Init error: %v", err)
		}
	}
	// The lazy first-use goroutine may have created the runtime before
	// any Init ran, so "no winner" is legal; two winners are not.
	if winners > 1 {
		t.Fatalf("Init succeeded %d times, want at most once", winners)
	}
	if dimmunix.Default() == nil {
		t.Fatal("no default runtime after Init race")
	}
	// Re-Init after the dust settles is rejected until Shutdown.
	if err := dimmunix.Init(); !errors.Is(err, dimmunix.ErrInitialized) {
		t.Fatalf("re-Init = %v, want ErrInitialized", err)
	}
	if err := dimmunix.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := dimmunix.Init(dimmunix.WithTau(time.Millisecond)); err != nil {
		t.Fatalf("Init after Shutdown: %v", err)
	}
}

func TestLockCtxCancellation(t *testing.T) {
	initDefault(t)
	var mu dimmunix.Mutex
	mu.Lock()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- mu.LockCtx(ctx) }()
	time.Sleep(20 * time.Millisecond) // let the goroutine block
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("LockCtx = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("LockCtx did not observe cancellation")
	}
	mu.Unlock()

	// A pre-expired deadline fails without touching the lock.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if err := mu.LockCtx(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired LockCtx = %v, want DeadlineExceeded", err)
	}

	// RWMutex: reader blocks writer-ctx, then cancellation fires.
	var rw dimmunix.RWMutex
	rw.RLock()
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer wcancel()
	if err := rw.LockCtx(wctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RWMutex.LockCtx = %v, want DeadlineExceeded", err)
	}
	rw.RUnlock()
}

func TestOptionEnvPrecedence(t *testing.T) {
	t.Setenv("DIMMUNIX_TAU", "250ms")
	t.Setenv("DIMMUNIX_MATCH_DEPTH", "7")

	// Env alone configures the runtime...
	if err := dimmunix.Shutdown(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dimmunix.Shutdown() })
	if err := dimmunix.Init(); err != nil {
		t.Fatal(err)
	}
	cfg := dimmunix.Default().Config()
	if cfg.Tau != 250*time.Millisecond || cfg.MatchDepth != 7 {
		t.Fatalf("env config not applied: Tau=%v MatchDepth=%d", cfg.Tau, cfg.MatchDepth)
	}

	// ...and options passed to Init override the environment.
	if err := dimmunix.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := dimmunix.Init(dimmunix.WithTau(9 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	cfg = dimmunix.Default().Config()
	if cfg.Tau != 9*time.Millisecond {
		t.Fatalf("option did not override env: Tau=%v", cfg.Tau)
	}
	if cfg.MatchDepth != 7 {
		t.Fatalf("untouched env setting lost: MatchDepth=%d", cfg.MatchDepth)
	}
}

func TestInitRejectsMalformedEnv(t *testing.T) {
	t.Setenv("DIMMUNIX_MODE", "sideways")
	if err := dimmunix.Shutdown(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dimmunix.Shutdown() })
	if err := dimmunix.Init(); err == nil {
		t.Fatal("Init accepted DIMMUNIX_MODE=sideways")
	}
}

// readSource returns a file of this package's directory.
func readSource(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// namesIn returns the sorted distinct first submatches of pattern in text.
func namesIn(text, pattern string) []string {
	seen := map[string]bool{}
	for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(text, -1) {
		seen[m[1]] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// optionNames lists the With* constructors options.go declares.
func optionNames(t *testing.T) []string {
	return namesIn(readSource(t, "options.go"), `(?m)^func (With[A-Za-z]+)\(`)
}

// TestPublicSurfaceDrift pins the configuration surface and the method
// sets of the aliased core types: the lab-only knobs and the derived or
// fixed values stay off Config, no exported method joins *CoreMutex,
// *CoreRWMutex, *CoreCond, *Thread or *Runtime unannounced, and the README
// Options table, the With* constructors in options.go, the DIMMUNIX_*
// variables the code reads and default.go's env doc block all list the
// same names.
func TestPublicSurfaceDrift(t *testing.T) {
	cfg := reflect.TypeOf(dimmunix.Config{})
	for _, name := range []string{
		"Guard", "MaxThreads", "IgnoreDecisions", "ProbeDepth", "DisableFastPath",
		"StackDepth", "EventBuffer", "EventBatch", "TraceMaxBytes", "CalibMaxDepth", "CalibNA", "CalibNT",
	} {
		if _, ok := cfg.FieldByName(name); ok {
			t.Errorf("Config.%s is back on the public surface", name)
		}
	}

	// The aliased core types carry the explicit surface, and nothing
	// else: the facade reaches core through package-level functions of
	// internal/core, so that seam stays inside the module.
	for _, c := range []struct {
		typ  reflect.Type
		want string
	}{
		{reflect.TypeOf((*dimmunix.CoreMutex)(nil)), "Holder ID Kind Lock LockCtx LockCtxT LockT LockTimeout LockTimeoutT MustLock MustUnlock Retire TryLock TryLockT Unlock UnlockHandoff UnlockT"},
		{reflect.TypeOf((*dimmunix.CoreRWMutex)(nil)), "Holder ID Lock LockCtx LockCtxT LockT LockTimeout LockTimeoutT RLock RLockCtx RLockCtxT RLockT RLockTimeout RLockTimeoutT RUnlock RUnlockHandoff RUnlockT ReaderCount Retire TryLock TryLockT TryRLock TryRLockT Unlock UnlockHandoff UnlockT"},
		{reflect.TypeOf((*dimmunix.CoreCond)(nil)), "Broadcast Signal Wait WaitCtx WaitCtxT WaitT WaitTimeoutT"},
		{reflect.TypeOf((*dimmunix.Thread)(nil)), "Close ID Name Priority SetPriority"},
		{reflect.TypeOf((*dimmunix.Runtime)(nil)), "AbortThreads CapturedStacks Config CurrentThread DisableLastAvoided History HistoryStore HistorySummary LastAvoided LiveThreadIDs Monitor MonitorCounters NewCond NewMutex NewMutexKind NewRWMutex NumThreads PruneIdleThreads RegisterThread ReloadHistory Stats Stop Subscribe SubscribeNamed SyncNow ThreadByID"},
	} {
		var got []string
		for i := 0; i < c.typ.NumMethod(); i++ {
			got = append(got, c.typ.Method(i).Name)
		}
		if want := strings.Fields(c.want); !reflect.DeepEqual(got, want) {
			t.Errorf("exported methods of %v:\n got  %v\n want %v", c.typ, got, want)
		}
	}

	readme := readSource(t, "README.md")
	_, table, ok := strings.Cut(readme, "\n## Options\n")
	if !ok {
		t.Fatal("README has no Options section")
	}
	table, _, _ = strings.Cut(table, "\n## ")
	var optCol, envCol string
	for _, line := range strings.Split(table, "\n") {
		if cells := strings.Split(line, "|"); len(cells) >= 4 {
			optCol += cells[1] + "\n"
			envCol += cells[2] + "\n"
		}
	}

	defaults := readSource(t, "default.go")
	// DIMMUNIX_SYNC_TOKEN is read where the HTTP store is opened.
	envRead := namesIn(defaults+readSource(t, "internal/histstore/store.go"), `"(DIMMUNIX_[A-Z_]+)"`)
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"README With* rows vs options.go", namesIn(optCol, `(With[A-Za-z]+)\(`), optionNames(t)},
		{"README env column vs variables read", namesIn(envCol, `(DIMMUNIX_[A-Z_]+)`), envRead},
		{"default.go env doc block vs variables read", namesIn(defaults, `(?m)^//\t(DIMMUNIX_[A-Z_]+)`), envRead},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s:\n got  %v\n want %v", c.what, c.got, c.want)
		}
	}
}

// platformTags are the build-constraint terms that name a platform: every
// GOOS and GOARCH the toolchain knows, and unix.
var platformTags = strings.Fields(`unix
	aix android darwin dragonfly freebsd hurd illumos ios js linux nacl
	netbsd openbsd plan9 solaris wasip1 windows zos
	386 amd64 amd64p32 arm armbe arm64 arm64be loong64 mips mipsle mips64
	mips64le mips64p32 mips64p32le ppc ppc64 ppc64le riscv riscv64 s390
	s390x sparc sparc64 wasm`)

// TestBuildConstraintsNamePlatforms: a //go:build line may select a
// platform, never a configuration. A build tag is a knob with no caller
// in this module — and one that changes what a capture records would let
// two builds archive different stacks for the same bug.
func TestBuildConstraintsNamePlatforms(t *testing.T) {
	platform := map[string]bool{}
	for _, tag := range platformTags {
		platform[tag] = true
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".s" {
			return nil
		}
		for _, line := range strings.Split(readSource(t, path), "\n") {
			if !constraint.IsGoBuild(line) {
				continue
			}
			expr, err := constraint.Parse(line)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				continue
			}
			for _, tag := range constraintTags(expr) {
				if !platform[tag] {
					t.Errorf("%s: %q: build tag %q is not a GOOS, GOARCH or unix", path, line, tag)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// constraintTags lists every tag x mentions. (Expr.Eval would skip the
// operand a short-circuit decides without.)
func constraintTags(x constraint.Expr) []string {
	switch x := x.(type) {
	case *constraint.TagExpr:
		return []string{x.Tag}
	case *constraint.NotExpr:
		return constraintTags(x.X)
	case *constraint.AndExpr:
		return append(constraintTags(x.X), constraintTags(x.Y)...)
	case *constraint.OrExpr:
		return append(constraintTags(x.X), constraintTags(x.Y)...)
	}
	return nil
}

// TestOptionsSetTheirField: every With* constructor is a shorthand for
// one Config field — applied to a zero Config it yields exactly the
// literal it documents (function values compare by nil-ness), and options
// after WithConfig refine the injected Config instead of replacing it.
func TestOptionsSetTheirField(t *testing.T) {
	store, err := dimmunix.OpenHistoryStore(filepath.Join(t.TempDir(), "store.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	whole := dimmunix.Config{Tau: time.Second, Calibrate: true, Immunity: dimmunix.StrongImmunity}
	rows := []struct {
		name string
		opts []dimmunix.Option
		want dimmunix.Config
	}{
		{"WithConfig", []dimmunix.Option{dimmunix.WithTau(time.Hour), dimmunix.WithConfig(whole), dimmunix.WithMatchDepth(3)},
			dimmunix.Config{Tau: time.Second, Calibrate: true, Immunity: dimmunix.StrongImmunity, MatchDepth: 3}},
		{"WithHistory", []dimmunix.Option{dimmunix.WithHistory("h.json")}, dimmunix.Config{HistoryPath: "h.json"}},
		{"WithHistoryStore", []dimmunix.Option{dimmunix.WithHistoryStore(store)}, dimmunix.Config{HistoryStore: store}},
		{"WithHistorySync", []dimmunix.Option{dimmunix.WithHistorySync("dir:/x")}, dimmunix.Config{HistorySync: "dir:/x"}},
		{"WithSyncInterval", []dimmunix.Option{dimmunix.WithSyncInterval(-1)}, dimmunix.Config{SyncInterval: -1}},
		{"WithTau", []dimmunix.Option{dimmunix.WithTau(7 * time.Millisecond)}, dimmunix.Config{Tau: 7 * time.Millisecond}},
		{"WithMatchDepth", []dimmunix.Option{dimmunix.WithMatchDepth(9)}, dimmunix.Config{MatchDepth: 9}},
		{"WithMaxYield", []dimmunix.Option{dimmunix.WithMaxYield(time.Minute)}, dimmunix.Config{MaxYield: time.Minute}},
		{"WithThreadTTL", []dimmunix.Option{dimmunix.WithThreadTTL(-1)}, dimmunix.Config{ThreadTTL: -1}},
		{"WithRecovery", []dimmunix.Option{dimmunix.WithRecovery(func(dimmunix.DeadlockInfo) {})},
			dimmunix.Config{OnDeadlock: func(dimmunix.DeadlockInfo) {}}},
		{"WithAbortRecovery", []dimmunix.Option{dimmunix.WithAbortRecovery()}, dimmunix.Config{RecoverAborts: true}},
		{"WithObserver", []dimmunix.Option{dimmunix.WithObserver(func(dimmunix.Event) {}), dimmunix.WithObserver(func(dimmunix.Event) {})},
			dimmunix.Config{Observers: []func(dimmunix.Event){func(dimmunix.Event) {}, func(dimmunix.Event) {}}}},
	}

	// Function values only compare to nil: funcsOf reduces them to their
	// nil-ness and rest is the Config without them.
	funcsOf := func(c dimmunix.Config) []bool {
		set := []bool{c.OnDeadlock != nil, c.OnStarvation != nil}
		for _, o := range c.Observers {
			set = append(set, o != nil)
		}
		return set
	}
	rest := func(c dimmunix.Config) dimmunix.Config {
		c.OnDeadlock, c.OnStarvation, c.Observers = nil, nil, nil
		return c
	}
	var covered []string
	for _, row := range rows {
		covered = append(covered, row.name)
		var got dimmunix.Config
		for _, o := range row.opts {
			o(&got)
		}
		if !reflect.DeepEqual(funcsOf(got), funcsOf(row.want)) || !reflect.DeepEqual(rest(got), rest(row.want)) {
			t.Errorf("%s:\n got  %+v\n want %+v", row.name, got, row.want)
		}
	}
	sort.Strings(covered)
	if want := optionNames(t); !reflect.DeepEqual(covered, want) {
		t.Errorf("rows cover %v, options.go declares %v", covered, want)
	}
}

// TestEnvSetsItsField: every DIMMUNIX_* variable default.go reads lands
// in its Config field, a malformed value makes Init fail naming the
// variable, and the variables that no longer exist are ignored.
func TestEnvSetsItsField(t *testing.T) {
	dir := t.TempDir()
	hist, journals, journal := filepath.Join(dir, "h.json"), "dir:"+filepath.Join(dir, "journals"), filepath.Join(dir, "trace.bin")
	rows := []struct {
		env, good, field string
		want             any
		bad              string // "" = any string is well-formed
	}{
		{"DIMMUNIX_HISTORY", hist, "HistoryPath", hist, ""},
		{"DIMMUNIX_HISTORY_SYNC", journals, "HistorySync", journals, ""},
		{"DIMMUNIX_SYNC_INTERVAL", "3s", "SyncInterval", 3 * time.Second, "3"},
		{"DIMMUNIX_SHUTDOWN_TIMEOUT", "250ms", "ShutdownTimeout", 250 * time.Millisecond, "soon"},
		{"DIMMUNIX_TAU", "20ms", "Tau", 20 * time.Millisecond, "20"},
		{"DIMMUNIX_MODE", "instrument", "Mode", dimmunix.ModeInstrument, "sideways"},
		{"DIMMUNIX_IMMUNITY", "strong", "Immunity", dimmunix.StrongImmunity, "total"},
		{"DIMMUNIX_RECOVERY", "abort", "RecoverAborts", true, "retry"},
		{"DIMMUNIX_MATCH_DEPTH", "6", "MatchDepth", 6, "deep"},
		{"DIMMUNIX_MAX_YIELD", "1s", "MaxYield", time.Second, "1"},
		{"DIMMUNIX_CALIBRATE", "true", "Calibrate", true, "maybe"},
		{"DIMMUNIX_DISCARD_OBSOLETE", "1", "DiscardObsolete", true, "maybe"},
		{"DIMMUNIX_THREAD_TTL", "-1s", "ThreadTTL", -time.Second, "never"},
		{"DIMMUNIX_TRACE", journal, "TracePath", journal, ""},
	}
	if err := dimmunix.Shutdown(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dimmunix.Shutdown() })

	var covered []string
	for _, row := range rows {
		covered = append(covered, row.env)
		t.Run(row.env, func(t *testing.T) {
			t.Setenv(row.env, row.good)
			if err := dimmunix.Init(); err != nil {
				t.Fatalf("%s=%q: Init: %v", row.env, row.good, err)
			}
			got := reflect.ValueOf(dimmunix.Default().Config()).FieldByName(row.field).Interface()
			if err := dimmunix.Shutdown(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, row.want) {
				t.Errorf("%s=%q: Config.%s = %v, want %v", row.env, row.good, row.field, got, row.want)
			}
			if row.bad == "" {
				return
			}
			t.Setenv(row.env, row.bad)
			if err := dimmunix.Init(); err == nil || !strings.Contains(err.Error(), row.env) {
				dimmunix.Shutdown()
				t.Errorf("%s=%q: Init = %v, want an error naming the variable", row.env, row.bad, err)
			}
		})
	}
	sort.Strings(covered)
	if want := namesIn(readSource(t, "default.go"), `"(DIMMUNIX_[A-Z_]+)"`); !reflect.DeepEqual(covered, want) {
		t.Errorf("rows cover %v, default.go reads %v", covered, want)
	}

	for _, gone := range []string{"DIMMUNIX_STACK_DEPTH", "DIMMUNIX_EVENT_BUFFER", "DIMMUNIX_EVENT_BATCH", "DIMMUNIX_TRACE_MAX_BYTES"} {
		t.Setenv(gone, "garbage")
	}
	if err := dimmunix.Init(); err != nil {
		t.Fatalf("Init with only removed variables set: %v", err)
	}
}

func TestMutexHandoffUnlock(t *testing.T) {
	initDefault(t)
	var mu dimmunix.Mutex
	mu.Lock()
	done := make(chan struct{})
	go func() { // sync.Mutex semantics: another goroutine may unlock.
		mu.Unlock()
		close(done)
	}()
	<-done
	if !mu.TryLock() {
		t.Fatal("mutex still locked after handoff unlock")
	}
	mu.Unlock()

	// sync.RWMutex semantics: RLock in one goroutine, RUnlock in another.
	var rw dimmunix.RWMutex
	rlocked := make(chan struct{})
	go func() {
		rw.RLock()
		close(rlocked)
	}()
	<-rlocked
	rw.RUnlock() // this goroutine holds no read lock itself
	if !rw.TryLock() {
		t.Fatal("RWMutex still read-locked after handoff RUnlock")
	}
	rw.Unlock()
}

func TestUnlockMisusePanics(t *testing.T) {
	initDefault(t)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	var mu dimmunix.Mutex
	mustPanic("Unlock of never-locked Mutex", func() { mu.Unlock() })
	mu.Lock()
	mu.Unlock()
	mustPanic("double Unlock", func() { mu.Unlock() })

	var rw dimmunix.RWMutex
	mustPanic("RUnlock of never-locked RWMutex", func() { rw.RUnlock() })
	rw.RLock()
	rw.RUnlock()
	mustPanic("RUnlock without read lock", func() { rw.RUnlock() })
	mustPanic("RWMutex.Unlock without write lock", func() { rw.Unlock() })
}

func TestRWMutexReadersShareWritersExclude(t *testing.T) {
	initDefault(t)
	var rw dimmunix.RWMutex

	// Two goroutines hold read locks simultaneously.
	var inside sync.WaitGroup
	release := make(chan struct{})
	inside.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			rw.RLock()
			inside.Done()
			<-release
			rw.RUnlock()
		}()
	}
	inside.Wait() // both readers inside at once: sharing works

	if rw.TryLock() {
		t.Fatal("TryLock succeeded while readers hold the lock")
	}
	close(release)

	rw.Lock() // writers get in once readers drain
	if rw.TryRLock() {
		t.Fatal("TryRLock succeeded while write-locked")
	}
	rw.Unlock()
}

// lockFirstZV / lockSecondZV give the two deadlock sides distinct call
// sites (signatures are stack multisets).
//
//go:noinline
func lockFirstZV(l interface{ LockCtx(context.Context) error }) error {
	return l.LockCtx(context.Background())
}

//go:noinline
func lockSecondZV(l interface{ LockCtx(context.Context) error }) error {
	return l.LockCtx(context.Background())
}

// crossOrder runs the §4 two-lock cross-order pattern through any pair of
// ctx-lockable/unlockable locks and reports the two sides' errors.
func crossOrder(t *testing.T, a, b interface {
	LockCtx(context.Context) error
}, ua, ub func()) (error, error) {
	t.Helper()
	var wg sync.WaitGroup
	var e1, e2 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		if e1 = lockFirstZV(a); e1 != nil {
			return
		}
		time.Sleep(50 * time.Millisecond)
		if e1 = b.LockCtx(context.Background()); e1 != nil {
			ua()
			return
		}
		ub()
		ua()
	}()
	go func() {
		defer wg.Done()
		if e2 = lockSecondZV(b); e2 != nil {
			return
		}
		time.Sleep(50 * time.Millisecond)
		if e2 = a.LockCtx(context.Background()); e2 != nil {
			ub()
			return
		}
		ua()
		ub()
	}()
	wg.Wait()
	return e1, e2
}

// TestZeroValueMutexImmunityLifecycle is the acceptance scenario: a
// two-lock cross-order deadlock through zero-value mutexes is archived on
// run 1 and avoided on run 2.
func TestZeroValueMutexImmunityLifecycle(t *testing.T) {
	hist := filepath.Join(t.TempDir(), "hist.json")
	initDefault(t, dimmunix.WithHistory(hist), dimmunix.WithAbortRecovery())
	rt := dimmunix.Default()

	var a, b dimmunix.Mutex
	e1, e2 := crossOrder(t, &a, &b, a.Unlock, b.Unlock)
	if !errors.Is(e1, dimmunix.ErrDeadlockRecovered) && !errors.Is(e2, dimmunix.ErrDeadlockRecovered) {
		t.Fatalf("run 1: expected recovery, got %v / %v", e1, e2)
	}
	if rt.History().Len() != 1 {
		t.Fatalf("run 1: history = %d, want 1", rt.History().Len())
	}

	e1, e2 = crossOrder(t, &a, &b, a.Unlock, b.Unlock)
	if e1 != nil || e2 != nil {
		t.Fatalf("run 2: immunized run failed: %v / %v", e1, e2)
	}
	if rt.Stats().Yields == 0 {
		t.Error("run 2: no yields recorded — pattern was not avoided, just lucky")
	}

	// The signature survives the runtime: a later process sees it.
	if err := dimmunix.Shutdown(); err != nil {
		t.Fatal(err)
	}
	h, err := dimmunix.LoadHistory(hist)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 1 {
		t.Fatalf("persisted history = %d, want 1", h.Len())
	}
}

// TestZeroValueRWMutexWriterImmunityLifecycle is the same acceptance
// scenario through the RWMutex writer path.
func TestZeroValueRWMutexWriterImmunityLifecycle(t *testing.T) {
	initDefault(t, dimmunix.WithAbortRecovery())
	rt := dimmunix.Default()

	var a, b dimmunix.RWMutex
	e1, e2 := crossOrder(t, &a, &b, a.Unlock, b.Unlock)
	if !errors.Is(e1, dimmunix.ErrDeadlockRecovered) && !errors.Is(e2, dimmunix.ErrDeadlockRecovered) {
		t.Fatalf("run 1: expected recovery, got %v / %v", e1, e2)
	}
	if rt.History().Len() != 1 {
		t.Fatalf("run 1: history = %d, want 1", rt.History().Len())
	}

	e1, e2 = crossOrder(t, &a, &b, a.Unlock, b.Unlock)
	if e1 != nil || e2 != nil {
		t.Fatalf("run 2: immunized run failed: %v / %v", e1, e2)
	}
	if rt.Stats().Yields == 0 {
		t.Error("run 2: no yields recorded")
	}
}

// rwReadSide adapts RLockCtx to the crossOrder helper so the deadlock
// runs through a reader-held edge: each side write-locks its own lock and
// read-locks the other's.
type rwReadSide struct{ rw *dimmunix.RWMutex }

func (r rwReadSide) LockCtx(ctx context.Context) error { return r.rw.RLockCtx(ctx) }

// TestRWMutexReaderHeldDeadlock drives writer-holds + reader-waits cross
// order: T1 write-locks A then read-locks B while T2 write-locks B then
// read-locks A. Detection and avoidance must handle the reader edges.
func TestRWMutexReaderHeldDeadlock(t *testing.T) {
	initDefault(t, dimmunix.WithAbortRecovery())
	rt := dimmunix.Default()

	var a, b dimmunix.RWMutex
	run := func() (error, error) {
		var wg sync.WaitGroup
		var e1, e2 error
		wg.Add(2)
		go func() {
			defer wg.Done()
			if e1 = lockFirstZV(&a); e1 != nil { // write A
				return
			}
			time.Sleep(50 * time.Millisecond)
			if e1 = (rwReadSide{&b}).LockCtx(context.Background()); e1 != nil { // read B
				a.Unlock()
				return
			}
			b.RUnlock()
			a.Unlock()
		}()
		go func() {
			defer wg.Done()
			if e2 = lockSecondZV(&b); e2 != nil { // write B
				return
			}
			time.Sleep(50 * time.Millisecond)
			if e2 = (rwReadSide{&a}).LockCtx(context.Background()); e2 != nil { // read A
				b.Unlock()
				return
			}
			a.RUnlock()
			b.Unlock()
		}()
		wg.Wait()
		return e1, e2
	}

	e1, e2 := run()
	if !errors.Is(e1, dimmunix.ErrDeadlockRecovered) && !errors.Is(e2, dimmunix.ErrDeadlockRecovered) {
		t.Fatalf("run 1: expected recovery through reader-held edge, got %v / %v", e1, e2)
	}
	if rt.History().Len() == 0 {
		t.Fatal("run 1: no signature archived")
	}
	e1, e2 = run()
	if e1 != nil || e2 != nil {
		t.Fatalf("run 2: immunized run failed: %v / %v", e1, e2)
	}
}
