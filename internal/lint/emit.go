package lint

import (
	"dimmunix/internal/calib"
	"dimmunix/internal/signature"
	"dimmunix/internal/stack"
)

// EmitOptions shape the lowering of confirmed cycles into signatures.
type EmitOptions struct {
	// Depth is the signature's fixed matching depth; frames beyond it are
	// still emitted (up to the available chain) so calibration can
	// tighten. <= 0 selects signature.DefaultDepth, clamped to the
	// shortest emitted stack.
	Depth int
	// Calibrate arms the §5.5 depth ladder on each emitted entry
	// (default-on via cmd/dimmunix-vet): the frames are static pseudo
	// frames, so the runtime should start matching at depth 1 and tighten
	// against real stacks from the first encounter.
	Calibrate bool
}

// EmitHistory lowers each confirmed cycle (lockorder's, chancycle's, or
// both concatenated) into a format-v2 signature and returns them as a
// mergeable history, the same shape dimmunix-predict pushes. A signature
// has one stack per cycle edge — the chain at which the holder acquired
// the lock it carries into the cycle, exactly the stacks predict and the
// live monitor archive — with runtime-style pseudo-frames (Func as the
// runtime names it, base filename, source line) so live captures
// compare equal at the matched depth. Entries are stamped
// Source="static"; cycles lowering to the same signature collapse.
func EmitHistory(cycles []ConfirmedCycle, opts EmitOptions) *signature.History {
	h := signature.NewHistory()
	for _, c := range cycles {
		stacks := make([]stack.Stack, 0, len(c.Edges))
		minLen := stack.MaxCaptureDepth
		for _, e := range c.Edges {
			s := make(stack.Stack, 0, len(e.HoldStack))
			for _, f := range e.HoldStack {
				s = append(s, stack.Frame{Func: f.Func, File: f.File, Line: f.Line})
			}
			if len(s) == 0 {
				continue
			}
			if len(s) < minLen {
				minLen = len(s)
			}
			stacks = append(stacks, s)
		}
		if len(stacks) != len(c.Edges) {
			continue
		}
		depth := opts.Depth
		if depth <= 0 {
			depth = signature.DefaultDepth
		}
		if depth > minLen {
			// A depth the stacks cannot serve would force full-equality
			// matching against longer live captures and never match.
			depth = minLen
		}
		sig := signature.New(signature.Deadlock, stacks, depth)
		sig.Source = signature.SourceStatic
		if opts.Calibrate {
			// The ladder may not out-climb the emitted frames for the same
			// reason the fixed depth is clamped.
			sig.Calib = calib.NewState(depth, 0, 0)
		}
		h.Add(sig)
	}
	return h
}
