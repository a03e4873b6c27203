package main

import "C"

// lockFromC is what C calls back (in a file of its own: cgo allows only
// declarations in the preamble of a file that exports).
//
//export lockFromC
func lockFromC() { lockAndCapture() }
