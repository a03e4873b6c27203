// Command dimmunix-benchdiff summarizes a `go test -bench` run and gates
// fast-path allocation regressions in CI. It is a dependency-free
// stand-in for benchstat (which the CI image does not carry): it parses
// the standard benchmark output format, reduces repeated runs (-count=N)
// to per-benchmark medians, prints them, and — with -gate-allocs — exits
// nonzero if any fast-tier benchmark's median allocs/op is above zero,
// the regression the zero-allocation fast path must never reintroduce.
// Latency is not gated here: benchmark/ (BENCHMARK.json) is the
// performance contract.
//
// Usage:
//
//	dimmunix-benchdiff -bench bench-ci.txt [-gate-allocs]
//
// -bench may be "-" to read the benchmark output from stdin.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// fastTierPattern selects the benchmarks the allocation gate applies to:
// the uncontended fast tier, empty or populated history. The guarded
// reference path symbolizes stacks per operation by design and is
// exempt.
var fastTierPattern = regexp.MustCompile(`^BenchmarkLockUncontendedParallel(Populated)?/`)

// benchLine matches one benchmark result line, e.g.
//
//	BenchmarkLockUncontendedParallel/g8-4   1879161   587.2 ns/op   22 B/op   0 allocs/op
//
// The trailing -P GOMAXPROCS suffix is optional (absent at GOMAXPROCS=1).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op)?(?:\s+([0-9.]+) allocs/op)?`)

type runs struct {
	ns     []float64
	bytes  []float64
	allocs []float64
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func parse(r io.Reader) (map[string]*runs, []string, error) {
	byName := make(map[string]*runs)
	var order []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := m[1]
		rs := byName[name]
		if rs == nil {
			rs = &runs{}
			byName[name] = rs
			order = append(order, name)
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		rs.ns = append(rs.ns, ns)
		if m[3] != "" {
			b, _ := strconv.ParseFloat(m[3], 64)
			rs.bytes = append(rs.bytes, b)
		}
		if m[4] != "" {
			a, _ := strconv.ParseFloat(m[4], 64)
			rs.allocs = append(rs.allocs, a)
		}
	}
	return byName, order, sc.Err()
}

func main() {
	benchPath := flag.String("bench", "-", "benchmark output file (- = stdin)")
	gate := flag.Bool("gate-allocs", false, "exit 1 if a fast-tier benchmark's median allocs/op > 0")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *benchPath != "-" {
		f, err := os.Open(*benchPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	byName, order, err := parse(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if len(byName) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark lines found")
		os.Exit(2)
	}

	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%-55s %12s %9s\n", "benchmark (medians)", "ns/op", "allocs")
	for _, name := range order {
		rs := byName[name]
		fmt.Fprintf(w, "%-55s %12.1f %9.0f\n", name, median(rs.ns), median(rs.allocs))
	}
	w.Flush()

	if *gate {
		failed := false
		for name, rs := range byName {
			if !fastTierPattern.MatchString(name) {
				continue
			}
			if len(rs.allocs) == 0 {
				fmt.Fprintf(os.Stderr, "benchdiff: %s has no allocs/op column (run with -benchmem)\n", name)
				failed = true
				continue
			}
			if a := median(rs.allocs); a > 0 {
				fmt.Fprintf(os.Stderr, "benchdiff: ALLOC REGRESSION: %s median %.0f allocs/op (fast tier must be 0)\n", name, a)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
		fmt.Println("alloc gate: fast-tier benchmarks at 0 allocs/op")
	}
}
