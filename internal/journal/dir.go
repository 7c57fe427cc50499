package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Journal is one open write-ahead journal directory: an active segment
// accepting group-committed appends, plus the snapshot/segment history
// recovery reads. All methods are safe for concurrent use.
type Journal struct {
	dir string

	// mu serialises file writes and rotation; the active segment and
	// its write offset live under it.
	mu      sync.Mutex
	f       *os.File
	seg     uint64
	written int64

	// syncMu is the group-commit leader lock: one fsync at a time,
	// each covering everything written before it started. synced is
	// the durable high-water mark, read and written under syncMu (with
	// mu taken inside to sample written).
	syncMu sync.Mutex
	synced int64

	// replay state discovered at Open.
	snapSeq   uint64
	snapBytes []byte
	tail      [][]byte // committed records since the snapshot, in order

	statMu sync.Mutex
	stats  Stats
}

func segName(seq uint64) string  { return fmt.Sprintf("wal-%08d.log", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%08d.json", seq) }

// parseSeq extracts the sequence number of a journal file name, or ok
// = false for foreign files (left alone).
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

// Open opens (or initialises) a journal directory: it locates the
// highest readable snapshot, loads every committed record of the
// segments at or after it, truncates the active segment's torn tail if
// the last crash left one, and positions the writer at the clean end.
// The loaded snapshot and records are served by Snapshot and Replay
// until the first Compact discards them.
func Open(dir string) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fileError("mkdir", dir, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fileError("read", dir, err)
	}
	var segs, snaps []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, seq)
		}
		if seq, ok := parseSeq(e.Name(), "snap-", ".json"); ok {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	j := &Journal{dir: dir}

	// Highest readable snapshot wins; an unreadable one (torn rename
	// cannot produce this, but disks can) falls back to the previous.
	for i := len(snaps) - 1; i >= 0; i-- {
		b, err := os.ReadFile(filepath.Join(dir, snapName(snaps[i])))
		if err == nil {
			j.snapSeq = snaps[i]
			j.snapBytes = b
			break
		}
	}

	// Replay segments at or after the snapshot, in order. The torn
	// tail of the FINAL segment is expected (a crash mid-append); a
	// tear in an earlier segment poisons everything after it — replay
	// stops there, and the writer resumes from that point, so the
	// suffix is dropped rather than half-applied.
	live := segs[:0]
	for _, s := range segs {
		if s >= j.snapSeq {
			live = append(live, s)
		}
	}
	lastSeg := j.snapSeq
	if lastSeg == 0 {
		lastSeg = 1
	}
	cleanEnd := int64(0)
	torn := false
	for _, s := range live {
		lastSeg = s
		path := filepath.Join(dir, segName(s))
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, fileError("read", path, err)
		}
		clean, _, _ := scan(buf, func(p []byte) error {
			j.tail = append(j.tail, append([]byte(nil), p...))
			return nil
		})
		cleanEnd = int64(clean)
		if clean < len(buf) {
			j.stats.TornBytes += int64(len(buf) - clean)
			torn = true
			break
		}
	}

	// Open the active segment at its clean end (truncating a tear).
	path := filepath.Join(dir, segName(lastSeg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fileError("open", path, err)
	}
	if torn {
		if err := f.Truncate(cleanEnd); err != nil {
			f.Close()
			return nil, fileError("truncate", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fileError("sync", path, err)
		}
	} else if fi, err := f.Stat(); err == nil {
		cleanEnd = fi.Size()
	}
	if _, err := f.Seek(cleanEnd, 0); err != nil {
		f.Close()
		return nil, fileError("seek", path, err)
	}
	j.f = f
	j.seg = lastSeg
	j.written = cleanEnd
	j.synced = cleanEnd
	j.stats.TailRecords = int64(len(j.tail))
	syncDir(dir)
	return j, nil
}

// Snapshot returns the state blob of the snapshot recovery starts
// from, or ok = false when the journal has never been compacted.
func (j *Journal) Snapshot() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapBytes, j.snapBytes != nil
}

// Replay calls fn with every committed record since the snapshot, in
// append order, and returns how many were delivered. It replays the
// records as loaded by Open — appends made through this handle are
// already applied state, not recovery work.
func (j *Journal) Replay(fn func(payload []byte) error) (int, error) {
	j.mu.Lock()
	tail := j.tail
	j.mu.Unlock()
	for i, rec := range tail {
		if err := fn(rec); err != nil {
			return i, err
		}
	}
	return len(tail), nil
}

// TailRecords reports the committed records a recovery right now would
// replay: the Open tail plus appends since (minus compactions).
func (j *Journal) TailRecords() int64 {
	j.statMu.Lock()
	defer j.statMu.Unlock()
	return j.stats.TailRecords
}

// Append commits one record: it is framed, written to the active
// segment, and not acknowledged until an fsync covers it. Concurrent
// appends share fsyncs (group commit).
func (j *Journal) Append(payload []byte) error {
	if len(payload) > MaxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds MaxRecord", len(payload))
	}
	buf := frame(nil, payload)

	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return fmt.Errorf("journal: append on closed journal")
	}
	if _, err := j.f.Write(buf); err != nil {
		j.mu.Unlock()
		return fileError("write", segName(j.seg), err)
	}
	j.written += int64(len(buf))
	end := j.written
	f := j.f
	seg := j.seg
	j.mu.Unlock()

	j.statMu.Lock()
	j.stats.Records++
	j.stats.Bytes += int64(len(buf))
	j.stats.TailRecords++
	j.statMu.Unlock()

	// Group commit: whoever holds syncMu next fsyncs everything
	// written so far; arrivals during that fsync queue up and are
	// usually already covered when they get the lock.
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	cur, curSeg := j.written, j.seg
	j.mu.Unlock()
	if curSeg == seg && j.synced >= end {
		return nil // an earlier leader's fsync covered this record
	}
	if err := f.Sync(); err != nil {
		return fileError("sync", segName(seg), err)
	}
	if curSeg == seg {
		j.synced = cur
	}
	j.statMu.Lock()
	j.stats.Fsyncs++
	j.statMu.Unlock()
	return nil
}

// Compact atomically publishes state as the new snapshot and rotates
// to a fresh segment: after it returns, recovery loads state and
// replays only records appended after this call. Old segments and
// snapshots are deleted best-effort — a crash between steps leaves
// dead files, never an inconsistent journal.
func (j *Journal) Compact(state []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: compact on closed journal")
	}
	// The snapshot must not advertise coverage of records that are in
	// the OS buffer but not on disk: sync the active segment first.
	if err := j.f.Sync(); err != nil {
		return fileError("sync", segName(j.seg), err)
	}
	next := j.seg + 1

	// 1. Publish the snapshot: temp, fsync, rename, fsync dir.
	tmp := filepath.Join(j.dir, snapName(next)+".tmp")
	if err := writeFileSync(tmp, state); err != nil {
		return err
	}
	final := filepath.Join(j.dir, snapName(next))
	if err := os.Rename(tmp, final); err != nil {
		return fileError("rename", final, err)
	}
	syncDir(j.dir)

	// 2. Rotate: open the fresh segment; the old handle closes.
	path := filepath.Join(j.dir, segName(next))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fileError("open", path, err)
	}
	syncDir(j.dir)
	old := j.f
	oldSeg := j.seg
	j.f = f
	j.seg = next
	j.written = 0
	j.syncMu.Lock()
	j.synced = 0
	j.syncMu.Unlock()
	old.Close()

	// 3. The snapshot supersedes the loaded history and everything in
	// segments ≤ oldSeg; delete the dead files best-effort.
	j.snapSeq = next
	j.snapBytes = append([]byte(nil), state...)
	j.tail = nil
	for seq := oldSeg; seq >= 1; seq-- {
		segPath := filepath.Join(j.dir, segName(seq))
		snapPath := filepath.Join(j.dir, snapName(seq))
		segGone := os.Remove(segPath) != nil
		snapGone := os.Remove(snapPath) != nil
		if segGone && snapGone && seq < oldSeg {
			break // past the start of history
		}
	}

	j.statMu.Lock()
	j.stats.Snapshots++
	j.stats.TailRecords = 0
	j.statMu.Unlock()
	return nil
}

// Stats returns a copy of the counters.
func (j *Journal) Stats() Stats {
	j.statMu.Lock()
	s := j.stats
	j.statMu.Unlock()
	j.mu.Lock()
	s.Segment = j.seg
	s.Snapshot = j.snapSeq
	j.mu.Unlock()
	return s
}

// Close syncs and closes the active segment. Further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// writeFileSync writes data to path and fsyncs it before returning.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fileError("create", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fileError("write", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fileError("sync", path, err)
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and creates are durable;
// best-effort because some platforms refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
