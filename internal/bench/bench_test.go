package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// The experiment drivers are exercised end-to-end in quick mode; the
// assertions check structure and the coarse shapes the paper reports.

func render(t *testing.T, r Report) string {
	t.Helper()
	var buf bytes.Buffer
	r.Render(&buf)
	return buf.String()
}

func TestAllRegistry(t *testing.T) {
	exps := All()
	if len(exps) != 10 {
		t.Fatalf("got %d experiments", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete experiment %+v", e)
		}
		if ids[e.ID] {
			t.Errorf("duplicate id %s", e.ID)
		}
		ids[e.ID] = true
		if ByID(e.ID) == nil {
			t.Errorf("ByID(%s) = nil", e.ID)
		}
	}
	if ByID("nope") != nil {
		t.Error("ByID(unknown) must be nil")
	}
}

func TestReportRender(t *testing.T) {
	r := Report{
		ID: "x", Title: "t",
		Header: []string{"A", "LongColumn"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	out := render(t, r)
	if !strings.Contains(out, "== x: t ==") || !strings.Contains(out, "note: hello") {
		t.Errorf("render output:\n%s", out)
	}
}

// checkSweep asserts a figure's shape on its sweep table — at least min
// quick points, the full sweep an ascending superset of the quick one —
// and returns the quick points.
func checkSweep(t *testing.T, sweep [2][]int, min int) []int {
	t.Helper()
	quick, full := Scale{}.pick(sweep), Scale{Full: true}.pick(sweep)
	if len(quick) < min {
		t.Fatalf("quick sweep has %d points, want >= %d", len(quick), min)
	}
	if !slices.IsSorted(full) {
		t.Errorf("full sweep %v is not ascending", full)
	}
	for _, p := range quick {
		if !slices.Contains(full, p) {
			t.Errorf("quick point %d is not on the full sweep %v", p, full)
		}
	}
	return quick
}

func TestFig5Shape(t *testing.T) {
	threads := checkSweep(t, fig5Threads, 3)
	if res := runPoint(Scale{}, fig5Point(threads[1])); res.Ops == 0 || res.Throughput <= 0 {
		t.Fatalf("fig5 point at %d threads measured nothing: %+v", threads[1], res)
	}
}

func TestFig7Shape(t *testing.T) {
	sizes := checkSweep(t, fig7Sizes, 4)
	if len(sizes) != 4 {
		t.Fatalf("fig7 rows = %d", len(sizes))
	}
	if res := runPoint(Scale{}, fig7Point(sizes[len(sizes)-1], 8)); res.Ops == 0 || res.Throughput <= 0 {
		t.Fatalf("fig7 point measured nothing: %+v", res)
	}
}

func TestFig9Shape(t *testing.T) {
	// baseline + ignored + depths + gate + ghost
	depths := checkSweep(t, fig9Depths, 3)
	if last := depths[len(depths)-1]; last != fig9ProbeDepth {
		t.Errorf("deepest quick point is %d, want the probe depth %d (the ~0-FP end of the curve)", last, fig9ProbeDepth)
	}
	res := runPoint(Scale{}, fig9Point(fig9ProbeDepth))
	if res.Ops == 0 {
		t.Fatalf("fig9 point measured nothing: %+v", res)
	}
	if res.ProbeFPs != 0 {
		t.Errorf("matching at the probe depth reported %d probe false positives", res.ProbeFPs)
	}
}

func TestTable2Quick(t *testing.T) {
	rep := Table2(Scale{})
	if len(rep.Rows) != 5 {
		t.Fatalf("table2 rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row[1] != "deadlocked+recovered" {
			t.Errorf("%s: first run = %q, want deadlock", row[0], row[1])
		}
		if !strings.HasPrefix(row[2], "3/3") {
			t.Errorf("%s: immunized runs = %q", row[0], row[2])
		}
	}
}

func TestResourcesQuick(t *testing.T) {
	rep := Resources(Scale{})
	if len(rep.Rows) != 3 {
		t.Fatalf("resources rows = %d", len(rep.Rows))
	}
}

func TestOverheadHelper(t *testing.T) {
	if overhead(100, 90) != 0.1 {
		t.Error("overhead(100,90) != 0.1")
	}
	if overhead(0, 10) != 0 {
		t.Error("overhead with zero base must be 0")
	}
	if overhead(100, 110) >= 0 {
		t.Error("speedup must be negative overhead")
	}
}
