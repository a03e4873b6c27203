//go:build !amd64 && !arm64

package core

import "runtime"

// Walk records into buf (s's own, from Bound) the raw PCs of the caller
// of the function it is called from, and outward: s.Walk(s.Bound(l)) in
// an entry point's body starts at the application's frame. This GOARCH
// has no frame-pointer walker, so Walk calls runtime.Callers, whose PCs
// are logical frames, the ones classify's recapture reads (keyCovers).
//
//go:noinline
func (s *Site) Walk(buf []uintptr) {
	// Skips runtime.Callers, Walk and the entry point.
	s.n = runtime.Callers(3, buf)
}

// walkSlack is how many PCs a walk takes beyond its bound of application
// frames: none, since runtime.Callers reports no wrapper frame for the
// slack to cover. Any slack would walk frames past the bound that no
// signature sees, and call paths differing only there would take call-site
// table entries, and recaptures, of their own.
const walkSlack = 0
