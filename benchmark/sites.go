package main

// The svc_sites call-site tree: four levels of noinline callers, each with
// four distinct call sites to the next level, so 4^4 = 256 paths lead to
// every leaf op — about a thousand distinct call stacks, far more than the
// per-goroutine classification table holds. Each case sits on its own line:
// a call site is a (function, line) frame as well as a return PC.

const sitePaths = 256

//go:noinline
func site1(c *client, path uint32, op opFunc, a, b int) {
	switch path & 3 {
	case 0:
		site2(c, path>>2, op, a, b)
	case 1:
		site2(c, path>>2, op, a, b)
	case 2:
		site2(c, path>>2, op, a, b)
	default:
		site2(c, path>>2, op, a, b)
	}
}

//go:noinline
func site2(c *client, path uint32, op opFunc, a, b int) {
	switch path & 3 {
	case 0:
		site3(c, path>>2, op, a, b)
	case 1:
		site3(c, path>>2, op, a, b)
	case 2:
		site3(c, path>>2, op, a, b)
	default:
		site3(c, path>>2, op, a, b)
	}
}

//go:noinline
func site3(c *client, path uint32, op opFunc, a, b int) {
	switch path & 3 {
	case 0:
		site4(c, path>>2, op, a, b)
	case 1:
		site4(c, path>>2, op, a, b)
	case 2:
		site4(c, path>>2, op, a, b)
	default:
		site4(c, path>>2, op, a, b)
	}
}

//go:noinline
func site4(c *client, path uint32, op opFunc, a, b int) {
	switch path & 3 {
	case 0:
		op(c, a, b)
	case 1:
		op(c, a, b)
	case 2:
		op(c, a, b)
	default:
		op(c, a, b)
	}
}
