package stack

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mkStack(names ...string) Stack {
	s := make(Stack, len(names))
	for i, n := range names {
		s[i] = Frame{Func: n, File: "f.go", Line: i + 1}
	}
	return s
}

func TestFrameStringParseRoundTrip(t *testing.T) {
	cases := []Frame{
		{Func: "main.main", File: "main.go", Line: 10},
		{Func: "pkg.(*T).Method", File: "t.go", Line: 1},
		{Func: "a@b", File: "weird.go", Line: 99}, // '@' inside func name
		{Func: "p.f", File: "dir.go", Line: 123456},
	}
	for _, f := range cases {
		got, err := ParseFrame(f.String())
		if err != nil {
			t.Fatalf("ParseFrame(%q): %v", f.String(), err)
		}
		if got != f {
			t.Errorf("round trip %q: got %+v want %+v", f.String(), got, f)
		}
	}
}

func TestParseFrameErrors(t *testing.T) {
	for _, s := range []string{"", "noat", "f@file", "f@file:xx", "f@file:"} {
		if _, err := ParseFrame(s); err == nil {
			t.Errorf("ParseFrame(%q): expected error", s)
		}
	}
}

func TestStackStringParseRoundTrip(t *testing.T) {
	s := mkStack("inner", "mid", "outer")
	got, err := Parse(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Errorf("round trip: got %v want %v", got, s)
	}
}

func TestParseEmpty(t *testing.T) {
	if _, err := Parse(""); err == nil {
		t.Error("Parse(\"\"): expected error")
	}
	if _, err := Parse("   "); err == nil {
		t.Error("Parse(blank): expected error")
	}
}

func TestCaptureBasic(t *testing.T) {
	s := Capture(0, 0)
	if len(s) == 0 {
		t.Fatal("Capture returned empty stack")
	}
	if !strings.Contains(s[0].Func, "TestCaptureBasic") {
		t.Errorf("innermost frame = %v, want TestCaptureBasic", s[0])
	}
	if s[0].File != "stack_test.go" {
		t.Errorf("innermost file = %q, want stack_test.go", s[0].File)
	}
}

//go:noinline
func captureHelper(depth int) Stack {
	if depth > 0 {
		return captureHelper(depth - 1)
	}
	return Capture(0, 0)
}

func TestCaptureNestedOrder(t *testing.T) {
	s := captureHelper(3)
	if len(s) < 4 {
		t.Fatalf("stack too short: %d frames", len(s))
	}
	for i := 0; i < 4; i++ {
		if !strings.Contains(s[i].Func, "captureHelper") {
			t.Errorf("frame %d = %v, want captureHelper", i, s[i])
		}
	}
	if !strings.Contains(s[4].Func, "TestCaptureNestedOrder") {
		t.Errorf("frame 4 = %v, want TestCaptureNestedOrder", s[4])
	}
}

func TestCaptureMax(t *testing.T) {
	s := captureHelper(10)
	if len(s) > MaxCaptureDepth {
		t.Errorf("len=%d exceeds MaxCaptureDepth", len(s))
	}
	s2 := Capture(0, 3)
	if len(s2) > 3 {
		t.Errorf("Capture(0,3) returned %d frames", len(s2))
	}
}

// TestWrapperFrameNames: the walk's resolution drops the wrappers
// runtime.Callers elides, and keeps an application's own functions whose
// names only look like one.
func TestWrapperFrameNames(t *testing.T) {
	for _, c := range []struct {
		fn, file string
		want     bool
	}{
		{"example.com/app.(*Pool).Get-fm", "pool.go", true},
		{"example.com/app.(*Pool).Lock", "<autogenerated>", true},
		{"example.com/app.serve.gowrap1", "app.go", true},
		{"example.com/app.(*Conn).close.deferwrap2", "conn.go", true},
		{"example.com/app.serve.func1.gowrap3", "app.go", true},
		{"example.com/app.gowrap1", "app.go", false},
		{"example.com/app.(*T).deferwrap2", "t.go", false},
		{"example.com/app.serve.gowrap", "app.go", false},
		{"example.com/app.serve.gowrap1x", "app.go", false},
		{"runtime.deferreturn", "panic.go", true},
		{"example.com/app.serve", "app.go", false},
	} {
		if got := wrapperFrame(c.fn, c.file); got != c.want {
			t.Errorf("wrapperFrame(%q, %q) = %v, want %v", c.fn, c.file, got, c.want)
		}
	}
}

func TestCaptureSkip(t *testing.T) {
	s0 := Capture(0, 0)
	s1 := Capture(1, 0)
	if len(s1) != len(s0)-1 {
		t.Fatalf("skip=1 len=%d, skip=0 len=%d", len(s1), len(s0))
	}
	if s1[0].Func != s0[1].Func {
		t.Errorf("skip=1 innermost %v != skip=0 second %v", s1[0], s0[1])
	}
}

func TestSuffix(t *testing.T) {
	s := mkStack("a", "b", "c", "d")
	if got := s.Suffix(2); !got.Equal(mkStack("a", "b")) {
		t.Errorf("Suffix(2) = %v", got)
	}
	if got := s.Suffix(0); !got.Equal(s) {
		t.Errorf("Suffix(0) = %v", got)
	}
	if got := s.Suffix(10); !got.Equal(s) {
		t.Errorf("Suffix(10) = %v", got)
	}
}

func TestMatchesAtDepth(t *testing.T) {
	a := mkStack("lock", "update", "mainA")
	b := mkStack("lock", "update", "mainB")
	if !a.MatchesAtDepth(b, 2) {
		t.Error("expected match at depth 2")
	}
	if a.MatchesAtDepth(b, 3) {
		t.Error("expected mismatch at depth 3")
	}
	if a.MatchesAtDepth(b, 0) {
		t.Error("depth 0 means full compare; expected mismatch")
	}
	if !a.MatchesAtDepth(a, 0) {
		t.Error("full compare with self must match")
	}
}

func TestMatchesAtDepthShortStacks(t *testing.T) {
	short := mkStack("lock")
	long := mkStack("lock", "update")
	// short is shorter than depth 2: fall back to full equality.
	if short.MatchesAtDepth(long, 2) {
		t.Error("short vs long at depth 2 must not match")
	}
	if !short.MatchesAtDepth(short.Clone(), 2) {
		t.Error("identical short stacks must match at any depth")
	}
}

func TestMatchDepthMonotonic(t *testing.T) {
	// match at depth d implies match at all d' <= d.
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		n := 2 + rng.Intn(6)
		a := Synthetic(rng.Uint64(), n)
		b := a.Clone()
		// mutate a random tail frame
		k := rng.Intn(n)
		b[k].Line += 1
		for d := 1; d <= n; d++ {
			m := a.MatchesAtDepth(b, d)
			want := d <= k
			if m != want {
				t.Fatalf("iter %d: depth %d match=%v want %v (mutated %d)", iter, d, m, want, k)
			}
		}
	}
}

func TestHashAtDepthConsistency(t *testing.T) {
	a := mkStack("lock", "update", "mainA")
	b := mkStack("lock", "update", "mainB")
	if a.HashAtDepth(2) != b.HashAtDepth(2) {
		t.Error("hashes at depth 2 should agree")
	}
	if a.HashAtDepth(3) == b.HashAtDepth(3) {
		t.Error("hashes at depth 3 should differ")
	}
	if a.Hash() != a.HashAtDepth(0) || a.Hash() != a.HashAtDepth(len(a)) {
		t.Error("Hash() must equal HashAtDepth(0) and full depth")
	}
}

func TestHashLineSensitivity(t *testing.T) {
	a := Stack{{Func: "f", File: "x.go", Line: 1}}
	b := Stack{{Func: "f", File: "x.go", Line: 2}}
	if a.Hash() == b.Hash() {
		t.Error("line change must change hash")
	}
	c := Stack{{Func: "g", File: "x.go", Line: 1}}
	if a.Hash() == c.Hash() {
		t.Error("func change must change hash")
	}
}

func TestHashEqualityProperty(t *testing.T) {
	// Equal stacks hash equal; independent of how they were built.
	f := func(seed uint64, depth uint8) bool {
		d := int(depth%8) + 1
		a := Synthetic(seed, d)
		b := a.Clone()
		return a.Hash() == b.Hash() && a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(42, 5)
	b := Synthetic(42, 5)
	if !a.Equal(b) {
		t.Error("Synthetic not deterministic")
	}
	c := Synthetic(43, 5)
	if a.Equal(c) {
		t.Error("different seeds should give different stacks")
	}
	if len(Synthetic(1, 0)) != 1 {
		t.Error("depth<=0 should clamp to 1")
	}
}

func TestSyntheticRoundTrip(t *testing.T) {
	s := Synthetic(7, 6)
	got, err := Parse(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(s) {
		t.Error("synthetic stack round trip failed")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := mkStack("x", "y")
	b := a.Clone()
	b[0].Line = 999
	if a[0].Line == 999 {
		t.Error("Clone aliases underlying array")
	}
	if Stack(nil).Clone() != nil {
		t.Error("nil clone should be nil")
	}
}

func TestInternerDedup(t *testing.T) {
	in := NewInterner()
	a := in.Intern(mkStack("a", "b"))
	b := in.Intern(mkStack("a", "b"))
	c := in.Intern(mkStack("a", "c"))
	if a != b {
		t.Error("identical stacks must intern to same pointer")
	}
	if a == c {
		t.Error("distinct stacks must intern to distinct pointers")
	}
	if in.Len() != 2 {
		t.Errorf("Len = %d, want 2", in.Len())
	}
	if a.ID != 0 || c.ID != 1 {
		t.Errorf("IDs = %d,%d want 0,1", a.ID, c.ID)
	}
}

func TestInternerByID(t *testing.T) {
	in := NewInterner()
	a := in.Intern(mkStack("a"))
	if in.ByID(a.ID) != a {
		t.Error("ByID lookup failed")
	}
	if in.ByID(99) != nil {
		t.Error("ByID out of range should be nil")
	}
}

func TestInternerSnapshotRange(t *testing.T) {
	in := NewInterner()
	in.Intern(mkStack("a"))
	in.Intern(mkStack("b"))
	snap := in.Snapshot()
	if len(snap) != 2 || snap[0].ID != 0 || snap[1].ID != 1 {
		t.Errorf("Snapshot = %v", snap)
	}
	count := 0
	in.Range(func(c *Interned) bool { count++; return count < 1 })
	if count != 1 {
		t.Errorf("Range early stop: count=%d", count)
	}
}

func TestInternerConcurrent(t *testing.T) {
	in := NewInterner()
	const G, N = 8, 200
	done := make(chan map[uint64]*Interned, G)
	for g := 0; g < G; g++ {
		go func() {
			seen := make(map[uint64]*Interned)
			for i := 0; i < N; i++ {
				s := Synthetic(uint64(i%50), 3)
				seen[uint64(i%50)] = in.Intern(s)
			}
			done <- seen
		}()
	}
	ref := <-done
	for g := 1; g < G; g++ {
		m := <-done
		for k, v := range m {
			if ref[k] != v {
				t.Fatalf("interner returned different pointers for seed %d", k)
			}
		}
	}
	if in.Len() != 50 {
		t.Errorf("Len = %d, want 50", in.Len())
	}
}

func BenchmarkCapture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Capture(0, 16)
	}
}

func BenchmarkHash(b *testing.B) {
	s := Synthetic(1, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Hash()
	}
}

func BenchmarkIntern(b *testing.B) {
	in := NewInterner()
	stacks := make([]Stack, 64)
	for i := range stacks {
		stacks[i] = Synthetic(uint64(i), 8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = in.Intern(stacks[i%64])
	}
}
