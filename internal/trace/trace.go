// Package trace is Dimmunix's predictive-immunity substrate: an opt-in,
// low-overhead recorder that journals lock acquisition/release events to
// an append-only binary file, and a reader that loads such journals for
// offline deadlock prediction (cmd/dimmunix-predict).
//
// The recorder hangs off the monitor goroutine, which already drains
// every instrumentation event — including the ones emitted by the
// lock-free fast tier — so tracing costs the lock path nothing: the only
// added work runs on the monitor thread, between passes.
//
// File format (little-endian):
//
//	header:  "DIMXTRC1" | u16 fplen | fingerprint bytes
//	stack:   0x01 | u32 ref | u16 len | stack.String bytes
//	event:   0x02 | u8 op | u32 tid | u64 lid | u32 ref | u64 seq
//
// Call stacks are interned per file: the first event using a stack is
// preceded by one stack record assigning it a file-local ref; later
// events carry only the ref. Events without a stack (releases) carry
// NoStackRef. A crash mid-write leaves at most one torn trailing record,
// which the reader tolerates (Trace.Truncated); everything before it is
// intact because records are appended through one buffered writer.
//
// The file is bounded: when it exceeds MaxBytes the recorder rotates it
// to path+".1" (replacing any previous rotation) and starts a fresh file
// with a fresh stack table. ReadAll reads the rotated file first, so a
// bounded trace still yields one ordered record stream.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"dimmunix/internal/event"
	"dimmunix/internal/stack"
)

const magic = "DIMXTRC1"

// DefaultMaxBytes bounds one trace file of a runtime's journal (and of
// a recorder given no bound): 64 MiB holds tens of millions of events, while rotation
// keeps a long-running canary from filling the disk.
const DefaultMaxBytes int64 = 64 << 20

// NoStackRef marks an event record without a call stack (releases: the
// monitor already knows the edge, so the instrumentation never captures
// one).
const NoStackRef uint32 = ^uint32(0)

const (
	tagStack byte = 1
	tagEvent byte = 2
)

// eventSize is the fixed on-disk size of one event record (tag + op +
// tid + lid + ref + seq).
const eventSize = 1 + 1 + 4 + 8 + 4 + 8

// Recorder journals acquisition events. It is safe for concurrent use,
// though the runtime feeds it from the single monitor goroutine; the
// mutex exists for the Close path and for tests.
type Recorder struct {
	records atomic.Uint64 // event records written
	dropped atomic.Uint64 // events lost to write errors or a closed recorder

	mu       sync.Mutex
	path     string
	fp       string
	maxBytes int64 // <= 0: unbounded
	f        *os.File
	w        *bufio.Writer
	size     int64
	refs     map[uint32]uint32 // stack.Interned.ID -> file-local ref
	nextRef  uint32
	seq      uint64
	closed   bool
	buf      [eventSize]byte
}

// NewRecorder opens (truncating) the journal at path. fingerprint stamps
// the header (signature.BuildFingerprint form); maxBytes bounds the file
// before rotation (0 selects DefaultMaxBytes, negative disables
// rotation).
func NewRecorder(path, fingerprint string, maxBytes int64) (*Recorder, error) {
	if maxBytes == 0 {
		maxBytes = DefaultMaxBytes
	}
	r := &Recorder{
		path:     path,
		fp:       fingerprint,
		maxBytes: maxBytes,
		refs:     make(map[uint32]uint32),
	}
	if err := r.openLocked(); err != nil {
		return nil, err
	}
	return r, nil
}

// openLocked starts a fresh journal file with its header; r.mu held (or
// the recorder not yet published).
func (r *Recorder) openLocked() error {
	f, err := os.Create(r.path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	r.f = f
	r.w = bufio.NewWriterSize(f, 1<<16)
	r.size = 0
	r.refs = make(map[uint32]uint32)
	r.nextRef = 0
	fp := r.fp
	if len(fp) > 0xffff {
		fp = fp[:0xffff]
	}
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(fp)))
	if _, err := r.w.WriteString(magic); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if _, err := r.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if _, err := r.w.WriteString(fp); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	r.size = int64(len(magic) + 2 + len(fp))
	return nil
}

// Record journals one instrumentation event. Only Acquired and Release
// events are persisted — they are what lock-set construction consumes;
// the rest of the protocol stream (requests, gos, yields) carries no
// extra ordering information for prediction. Never blocks the caller on
// I/O beyond the buffered write; errors count the event as dropped.
func (r *Recorder) Record(ev event.Event) {
	if ev.Kind != event.Acquired && ev.Kind != event.Release {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		r.dropped.Add(1)
		return
	}
	ref := NoStackRef
	if ev.Stack != nil {
		var ok bool
		if ref, ok = r.refs[ev.Stack.ID]; !ok {
			ref = r.nextRef
			if err := r.writeStackLocked(ref, ev.Stack.S); err != nil {
				r.dropped.Add(1)
				return
			}
			r.refs[ev.Stack.ID] = ref
			r.nextRef++
		}
	}
	b := r.buf[:]
	b[0] = tagEvent
	b[1] = byte(ev.Kind)
	binary.LittleEndian.PutUint32(b[2:], uint32(ev.TID))
	binary.LittleEndian.PutUint64(b[6:], ev.LID)
	binary.LittleEndian.PutUint32(b[14:], ref)
	binary.LittleEndian.PutUint64(b[18:], r.seq)
	if _, err := r.w.Write(b); err != nil {
		r.dropped.Add(1)
		return
	}
	r.seq++
	r.size += eventSize
	r.records.Add(1)
	if r.maxBytes > 0 && r.size >= r.maxBytes {
		r.rotateLocked()
	}
}

// writeStackLocked appends one stack-define record; r.mu held.
func (r *Recorder) writeStackLocked(ref uint32, s stack.Stack) error {
	str := s.String()
	if len(str) > 0xffff {
		// Keep only whole frames that fit; a partial frame would not
		// parse back. Stacks this deep never occur in practice
		// (MaxCaptureDepth bounds frames), but the format must not be
		// corruptible by one.
		if cut := strings.LastIndex(str[:0xffff], " < "); cut > 0 {
			str = str[:cut]
		} else {
			str = ""
		}
	}
	var hdr [7]byte
	hdr[0] = tagStack
	binary.LittleEndian.PutUint32(hdr[1:], ref)
	binary.LittleEndian.PutUint16(hdr[5:], uint16(len(str)))
	if _, err := r.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := r.w.WriteString(str); err != nil {
		return err
	}
	r.size += int64(len(hdr) + len(str))
	return nil
}

// rotateLocked moves the full journal to path+".1" (replacing a previous
// rotation) and starts a fresh file. The stack table resets with the
// file: each journal is self-contained. Sequence numbers keep running so
// ReadAll yields one monotonic stream. Rotation failures keep appending
// to the oversized file — losing the bound beats losing the trace.
func (r *Recorder) rotateLocked() {
	if err := r.w.Flush(); err != nil {
		return
	}
	if err := r.f.Close(); err != nil {
		return
	}
	if err := os.Rename(r.path, r.path+".1"); err != nil {
		// Reopen in append mode so recording continues into the same file.
		if f, oerr := os.OpenFile(r.path, os.O_WRONLY|os.O_APPEND, 0o644); oerr == nil {
			r.f = f
			r.w = bufio.NewWriterSize(f, 1<<16)
		} else {
			r.closed = true
		}
		return
	}
	if err := r.openLocked(); err != nil {
		r.closed = true
	}
}

// Records returns how many event records were journaled.
func (r *Recorder) Records() uint64 {
	if r == nil {
		return 0
	}
	return r.records.Load()
}

// Dropped returns how many events were lost — write errors, or arrivals
// after Close. Zero in a healthy deployment.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Path returns the journal path.
func (r *Recorder) Path() string { return r.path }

// Close flushes and closes the journal. Later Records count as dropped.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	err := r.w.Flush()
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: close: %w", err)
	}
	return nil
}

// Record is one journaled event, stacks resolved.
type Record struct {
	Op    event.Kind
	TID   int32
	LID   uint64
	Seq   uint64
	Stack stack.Stack // nil when the event carried none
}

// Trace is a loaded journal (or pair of journals, see ReadAll).
type Trace struct {
	// Fingerprint is the recording build's identity (from the current
	// file's header when rotated).
	Fingerprint string
	// Records are the events in journal order.
	Records []Record
	// Truncated reports that the final record was torn (crash or kill
	// mid-write); everything in Records is intact.
	Truncated bool
}

// ReadFile loads one journal file.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return read(bufio.NewReaderSize(f, 1<<16), path)
}

// ReadAll loads the journal at path together with its rotation
// predecessor path+".1" (when present, read first), yielding one ordered
// record stream.
func ReadAll(path string) (*Trace, error) {
	var out *Trace
	if prev, err := ReadFile(path + ".1"); err == nil {
		out = prev
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	cur, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	if out == nil {
		return cur, nil
	}
	out.Fingerprint = cur.Fingerprint
	out.Records = append(out.Records, cur.Records...)
	out.Truncated = out.Truncated || cur.Truncated
	return out, nil
}

func read(br *bufio.Reader, path string) (*Trace, error) {
	hdr := make([]byte, len(magic)+2)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: %s: short header: %w", path, err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, fmt.Errorf("trace: %s: bad magic", path)
	}
	fplen := int(binary.LittleEndian.Uint16(hdr[len(magic):]))
	fp := make([]byte, fplen)
	if _, err := io.ReadFull(br, fp); err != nil {
		return nil, fmt.Errorf("trace: %s: short header: %w", path, err)
	}
	tr := &Trace{Fingerprint: string(fp)}
	stacks := make(map[uint32]stack.Stack)
	for {
		tag, err := br.ReadByte()
		if err == io.EOF {
			return tr, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: %s: %w", path, err)
		}
		switch tag {
		case tagStack:
			var sh [6]byte
			if _, err := io.ReadFull(br, sh[:]); err != nil {
				tr.Truncated = true
				return tr, nil
			}
			ref := binary.LittleEndian.Uint32(sh[:4])
			n := int(binary.LittleEndian.Uint16(sh[4:]))
			raw := make([]byte, n)
			if _, err := io.ReadFull(br, raw); err != nil {
				tr.Truncated = true
				return tr, nil
			}
			if n == 0 {
				stacks[ref] = nil
				continue
			}
			s, err := stack.Parse(string(raw))
			if err != nil {
				return nil, fmt.Errorf("trace: %s: stack %d: %w", path, ref, err)
			}
			stacks[ref] = s
		case tagEvent:
			var b [eventSize - 1]byte
			if _, err := io.ReadFull(br, b[:]); err != nil {
				tr.Truncated = true
				return tr, nil
			}
			rec := Record{
				Op:  event.Kind(b[0]),
				TID: int32(binary.LittleEndian.Uint32(b[1:])),
				LID: binary.LittleEndian.Uint64(b[5:]),
				Seq: binary.LittleEndian.Uint64(b[17:]),
			}
			if ref := binary.LittleEndian.Uint32(b[13:]); ref != NoStackRef {
				rec.Stack = stacks[ref]
			}
			tr.Records = append(tr.Records, rec)
		default:
			return nil, fmt.Errorf("trace: %s: unknown record tag %d", path, tag)
		}
	}
}
