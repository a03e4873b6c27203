package stack

import (
	"fmt"
	"runtime"
	"testing"
)

// The capture-only microbench ladder: what one raw PC walk costs at
// several call depths, for each capture bound. This isolates the
// mandatory per-operation cost the fast tier pays before any caching —
// the capture ladder quoted in README "Performance" comes from these.
//
// "full" is the pre-shallow-capture behavior (MaxCaptureDepth buffer),
// "shallow" the depth-bounded walk the call-site table is keyed on.

var sinkN int

//go:noinline
func descend(depth int, f func() int) int {
	if depth <= 0 {
		return f()
	}
	return descend(depth-1, f)
}

func benchAtDepth(b *testing.B, depth int, f func() int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkN = descend(depth, f)
	}
}

func BenchmarkCaptureFullCallers(b *testing.B) {
	var buf [MaxCaptureDepth + 2]uintptr
	for _, depth := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			benchAtDepth(b, depth, func() int {
				return runtime.Callers(2, buf[:MaxCaptureDepth])
			})
		})
	}
}

func BenchmarkCaptureShallowCallers(b *testing.B) {
	var buf [MaxCaptureDepth + 2]uintptr
	for _, depth := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			benchAtDepth(b, depth, func() int {
				return runtime.Callers(2, buf[:8])
			})
		})
	}
}
