//go:build amd64 || arm64

package gid

import "unsafe"

// getg returns the calling goroutine's g, the runtime's per-goroutine
// descriptor (implemented in getg_*.s). It returns unsafe.Pointer so that
// reading a field goes through unsafe.Add, never a uintptr conversion.
func getg() unsafe.Pointer
