package stack

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// renderRef is the rendering signature IDs were defined over before
// AppendTo existed: Frame.String joined by " < ". IDs are a hash of it,
// so AppendTo may never drift from it by a byte.
func renderRef(s Stack) string {
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = f.String()
	}
	return strings.Join(parts, " < ")
}

// parseRef is Parse as it was (Split, then TrimSpace per part); the Cut
// walk must accept, reject and produce exactly the same.
func parseRef(s string) (Stack, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, errors.New("stack: empty stack string")
	}
	var out Stack
	for _, p := range strings.Split(s, " < ") {
		f, err := ParseFrame(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

var awkwardFrames = []Frame{
	{Func: "main.main", File: "main.go", Line: 1},
	{Func: "example.com/mod@v2.3.1/pkg.serve", File: "srv.go", Line: 7}, // '@' in the function name
	{Func: "pkg.(*T).run:fm", File: "t.go", Line: 12},                   // ':' in the function name
	{Func: "pkg.(*Pool[go.shape.int]).Get", File: "pool.go", Line: 12345},
	{Func: "pkg.Map[string,[]int].Each.func1", File: "map.go", Line: 100000},
	{Func: "main.日本語·dwrap·1", File: "ユニ.go", Line: 4096},
	{Func: "a<b", File: "lt.go", Line: 0},
	{Func: "neg", File: "neg.go", Line: -3},
}

func awkwardStack(r *rand.Rand) Stack {
	s := make(Stack, 1+r.Intn(6))
	for i := range s {
		s[i] = awkwardFrames[r.Intn(len(awkwardFrames))]
	}
	return s
}

func TestAppendToIsTheOneRendering(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	stacks := []Stack{nil, {}, {awkwardFrames[0]}, awkwardFrames, Synthetic(9, 32)}
	for i := 0; i < 200; i++ {
		stacks = append(stacks, awkwardStack(r))
	}
	for _, s := range stacks {
		want := renderRef(s)
		if got := s.String(); got != want {
			t.Fatalf("String() = %q, reference rendering %q", got, want)
		}
		if got := string(s.AppendTo([]byte("prefix\x00"))); got != "prefix\x00"+want {
			t.Fatalf("AppendTo after a prefix = %q, want the prefix then %q", got, want)
		}
		if len(s) == 0 {
			continue
		}
		back, err := Parse(want)
		if err != nil {
			t.Fatalf("Parse(%q): %v", want, err)
		}
		if !back.Equal(s) {
			t.Fatalf("Parse(String(s)) = %v, want %v", back, s)
		}
	}
}

func TestParseMatchesSplitReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	inputs := []string{
		"", "   ", " < ", "a@f:1 < ", " < a@f:1", "a@f:1 <  < b@f:2",
		"a@f:1  <  b@f:2", "\ta@f:1 < b@f:2\n", "a@f:1 <b@f:2", "a@f:1< b@f:2",
		"a@f:1 < b@f", "a@f:1 < b@f:x", "a@f:1 < noat:3", " a @f:1 <  b@f:2 ",
	}
	glue := []string{" < ", " < ", " < ", "  <  ", " <", "< ", "<", " ", "\t < \n"}
	for i := 0; i < 300; i++ {
		var b strings.Builder
		for j, n := 0, 1+r.Intn(5); j < n; j++ {
			if j > 0 {
				b.WriteString(glue[r.Intn(len(glue))])
			}
			b.WriteString(awkwardFrames[r.Intn(len(awkwardFrames))].String())
		}
		inputs = append(inputs, b.String())
	}
	for _, in := range inputs {
		got, gerr := Parse(in)
		want, werr := parseRef(in)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("Parse(%q) error = %v, reference error = %v", in, gerr, werr)
		}
		if gerr != nil {
			if gerr.Error() != werr.Error() {
				t.Fatalf("Parse(%q) error %q, reference %q", in, gerr, werr)
			}
			continue
		}
		if !got.Equal(want) {
			t.Fatalf("Parse(%q) = %v, reference %v", in, got, want)
		}
	}
}
