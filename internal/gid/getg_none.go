//go:build !amd64 && !arm64

package gid

import "unsafe"

// getg has no stub on this GOARCH: nil makes discovery leave the process
// on the parse.
func getg() unsafe.Pointer { return nil }
