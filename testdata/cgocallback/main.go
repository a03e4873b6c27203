// Command cgocallback takes Dimmunix locks in Go code that C calls back,
// from a C frame whose frame-pointer register holds the address of a page
// that faults on any access — as C code built without frame pointers may
// leave it. An entry point's walk follows the callback's frame pointers;
// it must stop at the callback's outermost Go frame rather than read C's
// frame pointer, or the process dies of the fault. It takes locks under
// each capture bound a lock's walk can have, checks that each interned
// stack is runtime.Callers', and prints "ok".
//
// The C caller is x86-64 assembly; the program builds on amd64 with cgo.
//
//	go run ./testdata/cgocallback
package main

/*
#include <stddef.h>
#include <sys/mman.h>

// dimmunix_call_with_fp calls lockFromC with the frame-pointer register
// holding fp, and restores it after.
void dimmunix_call_with_fp(void *fp);

static void *faulting_page(void) {
	void *p = mmap(NULL, 4096, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
	return p == MAP_FAILED ? NULL : p;
}

#if defined(__x86_64__)
__asm__(
	".text\n"
	".globl dimmunix_call_with_fp\n"
	"dimmunix_call_with_fp:\n"
	"	pushq %rbp\n"
	"	movq %rdi, %rbp\n"
	"	call lockFromC@PLT\n"
	"	popq %rbp\n"
	"	ret\n");
#endif
*/
import "C"

import (
	"fmt"
	"os"
	"runtime"
	"strings"

	"dimmunix"
	"dimmunix/internal/stack"
)

// mu is the lock lockFromC takes; callbackStack is runtime.Callers'
// capture of its Lock call, made next to it.
var (
	mu            *dimmunix.Mutex
	callbackStack stack.Stack
)

func main() {
	page := C.faulting_page()
	if page == nil {
		fail("mmap failed")
	}
	configs := []struct {
		name string
		opts []dimmunix.Option
	}{
		{"default", nil},
		// A complete capture on every acquisition: the fast tier is off.
		{"instrument", []dimmunix.Option{dimmunix.WithConfig(dimmunix.Config{Mode: dimmunix.ModeInstrument})}},
	}
	for _, c := range configs {
		if err := dimmunix.Init(c.opts...); err != nil {
			fail("%s: Init: %v", c.name, err)
		}
		mu = new(dimmunix.Mutex)
		for range 3 { // the first acquisition misses the call-site table, the others hit it
			C.dimmunix_call_with_fp(page)
		}
		var found bool
		for _, s := range dimmunix.Default().CapturedStacks() {
			if len(s) > 0 && strings.HasSuffix(s[0].Func, ".lockAndCapture") {
				found = true
				if !s.Equal(callbackStack.Suffix(len(s))) {
					fail("%s: interned %v, runtime.Callers gives %v", c.name, s, callbackStack)
				}
			}
		}
		if !found {
			fail("%s: no stack captured at lockAndCapture", c.name)
		}
		if err := dimmunix.Shutdown(); err != nil {
			fail("%s: Shutdown: %v", c.name, err)
		}
	}
	fmt.Println("ok")
}

// lockAndCapture locks and unlocks mu, and captures its Lock call's stack
// with runtime.Callers.
//
//go:noinline
func lockAndCapture() {
	var pcs [stack.MaxCaptureDepth]uintptr
	n := runtime.Callers(1, pcs[:])
	mu.Lock() // on the line after runtime.Callers
	mu.Unlock()
	callbackStack = stack.ResolvePCs(pcs[:n], stack.MaxCaptureDepth)
	callbackStack[0].Line++
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cgocallback: "+format+"\n", args...)
	os.Exit(1)
}
