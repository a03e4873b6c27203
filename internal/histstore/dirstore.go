package histstore

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dimmunix/internal/signature"
)

// journalExt marks DirStore journal files. Each line of a journal is one
// compact v2 snapshot record; the newest parseable line of a journal
// subsumes the older ones (a process's local history only moves forward
// in join order), so compaction may rewrite a journal down to its latest
// record at any time.
const journalExt = ".histj"

// baselineName is the shared baseline journal that absorbs journals of
// departed processes: without it the directory grows one journal per
// process forever under fleet churn. The baseline is itself a journal
// (merged by Load and hashed by Probe like any other) — it just has no
// owning process.
const baselineName = "baseline" + journalExt

// DefaultJournalRecords bounds a journal's record count before Push
// compacts it back to one record.
const DefaultJournalRecords = 8

// DefaultJournalExpiry is how long a journal may go without an append
// before a reader may fold it into the baseline and delete it. An hour is
// far beyond any live handle's push cadence while keeping the directory
// bounded within the first hour of churn.
const DefaultJournalExpiry = time.Hour

var journalSeq atomic.Uint64

// DirStore shares a directory of per-process append journals. Every
// store handle owns exactly one journal file, so pushes from different
// processes (or different handles) never contend on a lock or overwrite
// each other; Load merges every journal's records through the revision
// join. This is the no-write-contention backend for many instances on
// one filesystem.
//
// Journals whose owner departed (no append for the journal expiry) are
// compacted into the shared baseline file during Load, so the directory
// stays bounded under fleet churn. A live handle whose journal was
// compacted away (it only looked departed — e.g. a long-idle process)
// recovers on its next push: every record is the join of everything the
// handle ever pushed, so rewriting the journal from scratch loses
// nothing.
type DirStore struct {
	dir     string
	journal string // own journal path

	mu         sync.Mutex
	acc        *signature.History // join of everything this handle pushed
	f          *os.File
	records    int
	maxRecords int
	expiry     time.Duration // journal expiry (negative disables compaction)
}

// NewDirStore returns a store backed by dir (created if missing). The
// handle's journal is named uniquely per process and handle; it is
// created on first Push.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("histstore: %w", err)
	}
	name := fmt.Sprintf("j-%d-%d-%d%s",
		os.Getpid(), time.Now().UnixNano(), journalSeq.Add(1), journalExt)
	return &DirStore{
		dir:        dir,
		journal:    filepath.Join(dir, name),
		maxRecords: DefaultJournalRecords,
		expiry:     DefaultJournalExpiry,
	}, nil
}

// JournalPath returns this handle's own journal file path.
func (s *DirStore) JournalPath() string { return s.journal }

// SetJournalRecordLimit bounds the own journal's records before a push
// compacts it (<= 0 restores the default).
func (s *DirStore) SetJournalRecordLimit(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n <= 0 {
		n = DefaultJournalRecords
	}
	s.maxRecords = n
}

// staleJournal is a departed-journal compaction candidate observed
// during Load.
type staleJournal struct {
	path  string
	mtime time.Time
}

// Load merges every journal in the directory into a fresh history. A
// torn or unparseable record (e.g. a crash mid-append) is skipped; the
// join makes partial reads safe — they only delay convergence. The
// merged snapshot carries a fingerprint only when every record agrees on
// one. Journals of departed processes are opportunistically folded into
// the baseline on the way (best-effort maintenance — failures and lock
// contention just leave them for the next reader).
func (s *DirStore) Load(ctx context.Context) (*signature.History, Version, error) {
	v, err := s.Probe(ctx)
	if err != nil {
		return nil, "", err
	}
	s.mu.Lock()
	expiry := s.expiry
	s.mu.Unlock()

	out := signature.NewHistory()
	departed := signature.NewHistory() // baseline + stale journals
	var stale []staleJournal
	fp, fpMixed := "", false
	paths, err := s.journalPaths()
	if err != nil {
		return nil, "", err
	}
	for _, path := range paths {
		if err := ctxErr(ctx); err != nil {
			return nil, "", err
		}
		f, err := os.Open(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue // compacted or removed between readdir and open
		}
		if err != nil {
			return nil, "", fmt.Errorf("histstore: %w", err)
		}
		isBaseline := filepath.Base(path) == baselineName
		var mtime time.Time
		if fi, err := f.Stat(); err == nil {
			mtime = fi.ModTime()
		}
		isStale := expiry > 0 && path != s.journal && !isBaseline &&
			!mtime.IsZero() && time.Since(mtime) > expiry
		err = scanRecords(f, func(rec *signature.History) {
			out.Merge(rec)
			if isBaseline || isStale {
				departed.Merge(rec)
			}
			switch rfp := rec.Fingerprint(); {
			case rfp == "":
			case fp == "":
				fp = rfp
			case fp != rfp:
				fpMixed = true
			}
		})
		f.Close()
		if err != nil {
			return nil, "", fmt.Errorf("histstore: %w", err)
		}
		if isStale {
			stale = append(stale, staleJournal{path: path, mtime: mtime})
		}
	}
	if fp != "" && !fpMixed {
		out.SetFingerprint(fp)
		departed.SetFingerprint(fp)
	}
	if len(stale) > 0 && ctxErr(ctx) == nil {
		s.compactDeparted(departed, stale)
	}
	return out, v, nil
}

// compactDeparted folds the stale journals (whose records are already
// joined into departed, along with the baseline as read) into the
// baseline file and deletes them. Concurrent readers race benignly: the
// baseline rewrite runs under a non-blocking advisory lock (contenders
// skip their turn), the current baseline is re-read and re-joined under
// that lock (so a compaction that landed between our scan and our lock —
// whose source journals are already deleted — is never clobbered), the
// rename is atomic, and a journal whose mtime moved since the read is
// left alone — its owner came back, and its content is still subsumed
// by the baseline join.
func (s *DirStore) compactDeparted(departed *signature.History, stale []staleJournal) {
	unlock, err := tryLockFile(filepath.Join(s.dir, ".baseline.lock"))
	if err != nil || unlock == nil {
		return // busy or unlockable: another reader is compacting
	}
	defer unlock()

	baseline := filepath.Join(s.dir, baselineName)
	mergeJournalInto(baseline, departed)
	data, err := departed.MarshalJSONCompact()
	if err != nil {
		return
	}
	data = append(data, '\n')
	if err := atomicWriteFile(s.dir, ".histj-baseline-*", baseline, data); err != nil {
		return
	}
	for _, j := range stale {
		// Skip a journal that was appended to after we read it: the new
		// record is not in the baseline yet. (A live owner also re-creates
		// its journal on the next push, so even losing this race costs at
		// most one record's delta until then.)
		if fi, err := os.Stat(j.path); err == nil && fi.ModTime().Equal(j.mtime) {
			os.Remove(j.path)
		}
	}
}

// scanRecords invokes fn for every parseable record in a journal
// stream; blank lines and torn records (a crash mid-append) are
// skipped. Returns only scanner-level read errors.
func scanRecords(r io.Reader, fn func(*signature.History)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		rec := signature.NewHistory()
		if err := rec.UnmarshalJSON([]byte(line)); err != nil {
			continue // torn trailing record
		}
		fn(rec)
	}
	return sc.Err()
}

// mergeJournalInto joins every parseable record of the journal at path
// into h (best-effort: a missing or torn file contributes nothing).
func mergeJournalInto(path string, h *signature.History) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close()
	_ = scanRecords(f, func(rec *signature.History) { h.Merge(rec) })
}

// atomicWriteFile publishes data at target via a temp file in dir plus
// rename, cleaning the temp up on any failure. The temp file is synced
// before the rename: compactDeparted deletes its source journals right
// after, so a power loss must not be able to surface the rename (and
// the unlinks) without the new content — for departed journals there is
// no owner left to re-push what a torn baseline would lose.
func atomicWriteFile(dir, tmpPattern, target string, data []byte) error {
	tmp, err := os.CreateTemp(dir, tmpPattern)
	if err != nil {
		return fmt.Errorf("histstore: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("histstore: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("histstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("histstore: %w", err)
	}
	if err := os.Rename(tmpName, target); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("histstore: %w", err)
	}
	// Make the rename durable before the caller proceeds (compactDeparted
	// unlinks its source journals next — those unlinks must never reach
	// disk ahead of the baseline they were folded into). Best-effort:
	// directory fsync is unsupported on some platforms.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// Push joins h into the handle's accumulated state and appends that as
// one record to its own journal — no cross-process lock, no
// read-modify-write. Because each record is the join of everything the
// handle ever pushed, the newest record subsumes the older ones, which
// is what lets compaction rewrite the journal down to a single record.
func (s *DirStore) Push(ctx context.Context, h *signature.History) (Version, error) {
	if err := ctxErr(ctx); err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.acc == nil {
		s.acc = signature.NewHistory()
	}
	s.acc.Merge(h)
	if fp := h.Fingerprint(); fp != "" {
		s.acc.SetFingerprint(fp)
	}
	data, err := s.acc.MarshalJSONCompact()
	if err != nil {
		s.mu.Unlock()
		return "", err
	}
	data = append(data, '\n')
	err = s.appendLocked(ctx, data)
	s.mu.Unlock()
	if err != nil {
		return "", err
	}
	return s.Probe(ctx)
}

// appendLocked appends one record, defending against the departed-journal
// compactor. A journal that is (or is approaching) a compaction
// candidate is rewritten under the same advisory lock the compactor
// holds across its stat-and-remove, so the append cannot land on a file
// mid-deletion; the half-expiry margin guarantees a journal taking the
// unguarded path is too fresh for any in-flight compactor scan to have
// selected it (its pre-remove mtime re-check would skip it regardless).
// Rewrites are lossless: every record is the handle's full accumulated
// join. This matters most for Stop's final publish, where a lost record
// would have no "next push" to heal it.
func (s *DirStore) appendLocked(ctx context.Context, record []byte) error {
	fi, statErr := os.Stat(s.journal)
	missing := errors.Is(statErr, fs.ErrNotExist)
	nearStale := statErr == nil && s.expiry > 0 && time.Since(fi.ModTime()) > s.expiry/2
	if (missing && s.f != nil) || nearStale {
		// Already folded into the baseline (the open descriptor points at
		// an unlinked inode), or idle long enough that a compactor could
		// soon target it.
		return s.recreateUnderLock(ctx, record)
	}
	if s.records+1 > s.maxRecords {
		return s.compactLocked(record)
	}
	if s.f == nil {
		f, err := os.OpenFile(s.journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("histstore: %w", err)
		}
		s.f = f
	}
	if _, err := s.f.Write(record); err != nil {
		return fmt.Errorf("histstore: %w", err)
	}
	// Belt for the boundary case: if a compactor deleted the journal
	// between the stat above and the write, the record sits on an
	// unlinked inode — republish it under the lock.
	if _, err := os.Stat(s.journal); errors.Is(err, fs.ErrNotExist) {
		return s.recreateUnderLock(ctx, record)
	}
	s.records++
	return nil
}

// recreateUnderLock rewrites the journal from scratch (one cumulative
// record) while holding the compactor's advisory lock, so no concurrent
// departed-journal compaction can be mid-removal of it.
func (s *DirStore) recreateUnderLock(ctx context.Context, record []byte) error {
	unlock, err := lockFile(ctx, filepath.Join(s.dir, ".baseline.lock"))
	if err != nil {
		return fmt.Errorf("histstore: lock %s: %w", s.journal, err)
	}
	defer unlock()
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	s.records = 0
	return s.compactLocked(record)
}

// compactLocked atomically replaces the journal with the single newest
// record.
func (s *DirStore) compactLocked(record []byte) error {
	if err := atomicWriteFile(s.dir, ".histj-compact-*", s.journal, record); err != nil {
		return err
	}
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	// Reopen in append mode so subsequent records extend the compacted
	// file (the old descriptor points at the unlinked inode).
	f, err := os.OpenFile(s.journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("histstore: %w", err)
	}
	s.f = f
	s.records = 1
	return nil
}

// Probe hashes every journal's (name, size, mtime) triple — one readdir
// plus one stat per journal, no record parsing.
func (s *DirStore) Probe(ctx context.Context) (Version, error) {
	if err := ctxErr(ctx); err != nil {
		return "", err
	}
	paths, err := s.journalPaths()
	if err != nil {
		return "", err
	}
	hash := fnv.New64a()
	for _, path := range paths {
		fi, err := os.Stat(path)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return "", fmt.Errorf("histstore: %w", err)
		}
		fmt.Fprintf(hash, "%s:%d:%d;", filepath.Base(path), fi.Size(), fi.ModTime().UnixNano())
	}
	return Version(fmt.Sprintf("%d:%x", len(paths), hash.Sum64())), nil
}

func (s *DirStore) journalPaths() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil // first run: nothing journaled yet
	}
	if err != nil {
		// An unreadable directory must surface, not masquerade as an
		// empty (healthy) fleet history.
		return nil, fmt.Errorf("histstore: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), journalExt) {
			paths = append(paths, filepath.Join(s.dir, e.Name()))
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// Close releases the journal file handle; the journal itself stays — it
// is this process's contribution to the shared immunity.
func (s *DirStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		err := s.f.Close()
		s.f = nil
		return err
	}
	return nil
}
