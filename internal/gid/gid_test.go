package gid

import (
	"sync"
	"testing"
	"unsafe"
)

func TestCurrentNonZero(t *testing.T) {
	if Current() == 0 {
		t.Fatal("Current returned 0")
	}
}

func TestCurrentStableWithinGoroutine(t *testing.T) {
	a := Current()
	b := Current()
	if a != b {
		t.Fatalf("same goroutine returned different ids: %d vs %d", a, b)
	}
}

func TestCurrentDistinctAcrossGoroutines(t *testing.T) {
	const G = 32
	ids := make(chan uint64, G)
	var wg sync.WaitGroup
	for i := 0; i < G; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids <- Current()
		}()
	}
	wg.Wait()
	close(ids)
	seen := make(map[uint64]bool)
	for id := range ids {
		if id == 0 {
			t.Fatal("goroutine got id 0")
		}
		if seen[id] {
			t.Fatalf("duplicate goroutine id %d", id)
		}
		seen[id] = true
	}
	if len(seen) != G {
		t.Fatalf("got %d distinct ids, want %d", len(seen), G)
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"goroutine 1 [running]:\nmain.main()", 1},
		{"goroutine 4711 [select]:\n", 4711},
		{"gorout", 0},
		{"goroutine  [running]", 0},
		{"goroutine x [running]", 0},
		{"", 0},
	}
	for _, c := range cases {
		if got := parse([]byte(c.in)); got != c.want {
			t.Errorf("parse(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// arm drives the process's identity to the armed read and reports true.
// On a GOARCH with no getg stub identity must stay the parse, and it
// reports false.
func arm(t *testing.T) bool {
	t.Helper()
	for range verifyN {
		Current()
	}
	armed, want := getg() != nil, "armed"
	if !armed {
		want = "parse"
	}
	if m := Mode(); m != want {
		t.Fatalf("Mode after %d calls = %q, want %s", verifyN, m, want)
	}
	return armed
}

func TestDiscoveryArmsTheRead(t *testing.T) {
	arm(t)
	if got, want := Current(), parsed(); got != want {
		t.Fatalf("armed read = %d, parse = %d", got, want)
	}
}

// TestPoisonedOffsetFallsBackToParse: a read that disagrees with the parse
// while verifying moves the process to the parse for good. With no getg
// stub the process is on the parse from the start, and stays there.
func TestPoisonedOffsetFallsBackToParse(t *testing.T) {
	if arm(t) {
		poison(t)
		if got, want := Current(), parsed(); got != want {
			t.Fatalf("verified call returned %d, parse says %d", got, want)
		}
		if m := Mode(); m != "parse" {
			t.Fatalf("Mode after a disagreeing read = %q, want parse", m)
		}
	}
	for range 2 * verifyN {
		if got, want := Current(), parsed(); got != want {
			t.Fatalf("Current = %d on the parse, want %d", got, want)
		}
	}
	if m := Mode(); m != "parse" {
		t.Fatalf("Mode = %q after further calls, want parse for good", m)
	}
}

// TestConcurrentVerificationArms: goroutines verifying at once agree with
// the parse throughout and arm the read once between them. With no getg
// stub they agree with the parse and leave the process on it.
func TestConcurrentVerificationArms(t *testing.T) {
	want := "parse"
	if arm(t) {
		want = "armed"
		reverify(t, 0)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range verifyN {
				if got, want := Current(), parsed(); got != want {
					t.Errorf("Current = %d while verifying, parse = %d", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if m := Mode(); m != want {
		t.Fatalf("Mode after %d concurrent verified calls = %q, want %s", 8*verifyN, m, want)
	}
}

// TestSettleNeedsExactlyOneOffset: discovery reads g only when exactly one
// offset survives the intersection.
func TestSettleNeedsExactlyOneOffset(t *testing.T) {
	keepMode(t)
	for _, c := range []struct {
		name string
		set  uint64
		want string
	}{
		{"none", 0, "parse"},
		{"several", 1<<20 | 1<<23, "parse"},
		{"one", 1 << 20, "verifying"},
	} {
		settle(c.set)
		if m := Mode(); m != c.want {
			t.Errorf("%s survivors: Mode = %q, want %q", c.name, m, c.want)
		}
	}
	if off != 160 {
		t.Errorf("bit 20 settled at offset %d, want 160", off)
	}
}

// TestCandidatesFindTheGoid: discovery's scan finds the parsed goid among
// g's words. With no getg stub it scans a stand-in g holding the goid at
// byte offset 160.
func TestCandidatesFindTheGoid(t *testing.T) {
	g := getg()
	var standIn [scanWords]uint64
	if g == nil {
		standIn[20] = parsed()
		g = unsafe.Pointer(&standIn)
	}
	set := candidates(g, parsed())
	if set == 0 || getg() == nil && set != 1<<20 {
		t.Fatalf("candidates = %#x: the scan missed the parsed goid", set)
	}
	if candidates(g, 0) != 0 {
		t.Fatal("an unparsed goid produced candidates")
	}
}

// TestArmedReadAgreesOnRecycledGs: the armed read names goroutines by
// goid, not by g. Sequential short-lived goroutines run on recycled gs;
// each must still read its own, never reused, goid. Under -race the
// reads run with checkptr on. With no getg stub the parse names them.
func TestArmedReadAgreesOnRecycledGs(t *testing.T) {
	want := "parse"
	if arm(t) {
		want = "armed"
	}
	const n = 2000
	type sample struct {
		g       uintptr
		id, par uint64
	}
	gs := make(map[uintptr]bool, n)
	ids := make(map[uint64]bool, n)
	for range n {
		ch := make(chan sample)
		go func() { ch <- sample{uintptr(getg()), Current(), parsed()} }()
		s := <-ch
		if s.id != s.par {
			t.Fatalf("read %d, parse %d", s.id, s.par)
		}
		if ids[s.id] {
			t.Fatalf("goid %d seen twice", s.id)
		}
		ids[s.id] = true
		gs[s.g] = true
	}
	if len(gs) == n {
		t.Fatalf("%d goroutines ran on %d distinct gs: no g was recycled, so the test proved nothing", n, len(gs))
	}
	if m := Mode(); m != want {
		t.Fatalf("Mode = %q after the recycled-g run, want %s", m, want)
	}
}

func TestForceUnreadable(t *testing.T) {
	restore := ForceUnreadable()
	got, m := Current(), Mode()
	restore()
	if got != 0 || m != "parse" {
		t.Fatalf("forced unreadable: Current = %d, Mode = %q; want 0, parse", got, m)
	}
	if Current() == 0 {
		t.Fatal("Current still 0 after restore")
	}
}

func BenchmarkCurrent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Current()
	}
}

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = parsed()
	}
}
