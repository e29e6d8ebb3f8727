// Package store is the durability layer of the flow-motif system: an
// append-only, checksummed, segmented write-ahead log of interaction
// events plus engine snapshots, so that flowmotifd (internal/server,
// internal/stream) survives restarts and batch queries can run over event
// histories larger than RAM.
//
// Layout of a data directory:
//
//	<dir>/wal/<index>.seg    time-ordered event segments; sealed segments
//	                         carry a [minT, maxT] index header, the last
//	                         segment is active (append target)
//	snap/<seq>.snap          JSON snapshots: an opaque payload (the engine
//	                         state serialized by the owner) tagged with the
//	                         WAL sequence number it reflects
//
// Events are totally ordered by a sequence number (their position in the
// WAL); a snapshot taken at seq S plus a replay of events [S, ...) rebuilds
// the exact pre-crash state. Recovery truncates a torn or corrupt tail off
// the active segment (see segment.go) and falls back across corrupt
// snapshots — worst case, a full replay from seq 0.
//
// The out-of-core batch query path is in query.go: it streams segments
// through core.EnumerateRange in δ-overlapping anchor bands, so a
// full-catalog FindInstances-equivalent search needs memory proportional
// to the densest δ-window, not the dataset.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"flowmotif/internal/obs"
	"flowmotif/internal/temporal"
)

// DefaultSegmentEvents is the default segment roll threshold.
const DefaultSegmentEvents = 1 << 17

// SnapshotFileVersion is the on-disk snapshot envelope version.
const SnapshotFileVersion = 1

const snapSuffix = ".snap"

// Options parameterizes a Store.
type Options struct {
	// SegmentEvents caps the events per WAL segment; the active segment is
	// sealed and a fresh one started once it reaches this many events
	// (default DefaultSegmentEvents).
	SegmentEvents int
	// Sync fsyncs the active segment after every Append. Off by default:
	// appends are still flushed to the OS per batch, but a machine crash
	// (not just a process crash) may lose the tail.
	Sync bool
	// Obs receives store instrumentation — WAL append, fsync, and
	// segment-seal timing histograms; nil disables it.
	Obs *obs.Registry
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.SegmentEvents <= 0 {
		out.SegmentEvents = DefaultSegmentEvents
	}
	return out
}

// SegmentStat describes one WAL segment for introspection (stats
// endpoints, tests).
type SegmentStat struct {
	Index    int64 `json:"index"`
	FirstSeq int64 `json:"firstSeq"`
	Count    int64 `json:"count"`
	MinT     int64 `json:"minT"`
	MaxT     int64 `json:"maxT"`
	Sealed   bool  `json:"sealed"`
}

// Snapshot is the on-disk snapshot envelope. Payload is opaque to the
// store; internal/server fills it with the serialized engine and sink
// state.
type Snapshot struct {
	Version   int             `json:"version"`
	Seq       int64           `json:"seq"` // events applied when taken
	TakenUnix int64           `json:"takenUnix"`
	Payload   json.RawMessage `json:"payload"`
}

// Store is a durable segmented event store. It is safe for concurrent use;
// appends are serialized, and reads (Replay, Query) run against the
// flushed prefix without blocking writers.
type Store struct {
	dir     string
	walDir  string
	snapDir string
	opts    Options

	lock *os.File // flock-held lock file guarding the whole directory

	mu     sync.Mutex
	sealed []segmentInfo
	active *segmentWriter
	gate   temporal.Gate // the stream contract; its frontier is the last recorded timestamp
	closed bool
	failed error // first write error: the store is fail-stop afterwards

	snapSeq int64
	snapAt  time.Time
	hasSnap bool

	// WAL timing histograms (nil without Options.Obs; all nil-safe).
	mxAppend *obs.Histogram
	mxFsync  *obs.Histogram
	mxSeal   *obs.Histogram
}

// Open opens (creating if necessary) the store rooted at dir and recovers
// it: sealed segments are index-checked, the active segment is scanned and
// truncated past the last intact record, and the newest snapshot's
// metadata is located.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		dir:     dir,
		walDir:  filepath.Join(dir, "wal"),
		snapDir: filepath.Join(dir, "snap"),
		opts:    opts.withDefaults(),
		gate:    temporal.OpenGate(),
	}
	if r := s.opts.Obs; r != nil {
		s.mxAppend = r.Histogram("flowmotif_store_append_seconds",
			"Whole WAL batch append wall-clock (validate, write, roll, flush).", obs.LatencyBuckets)
		s.mxFsync = r.Histogram("flowmotif_store_fsync_seconds",
			"Active-segment fsync wall-clock (observed only with Options.Sync).", obs.LatencyBuckets)
		s.mxSeal = r.Histogram("flowmotif_store_seal_seconds",
			"Segment roll wall-clock: seal (index header rewrite, final sync) plus successor creation.", obs.LatencyBuckets)
	}
	for _, d := range []string{s.walDir, s.snapDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	// Exclusive advisory lock: a second process opening the same data dir
	// (e.g. a double-started daemon) would interleave appends into the
	// active segment and corrupt acknowledged events. flock releases on
	// process death, so a crash never wedges the directory.
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return nil, fmt.Errorf("store: data dir %s is locked by another process: %w", dir, err)
	}
	s.lock = lock
	ok := false
	defer func() {
		if !ok {
			syscall.Flock(int(lock.Fd()), syscall.LOCK_UN)
			lock.Close()
		}
	}()
	segs, err := listSegments(s.walDir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}

	// Each segment's records must resume time order at the frontier.
	expectSeq := int64(0)
	for i := range segs {
		si := &segs[i]
		if err := recoverSegment(si, s.gate.Next()); err != nil {
			return nil, err
		}
		if i == 0 {
			expectSeq = si.firstSeq
		}
		if si.firstSeq != expectSeq {
			return nil, fmt.Errorf("store: segment %s starts at seq %d, want %d (missing segment?)", si.path, si.firstSeq, expectSeq)
		}
		if i < len(segs)-1 && !si.sealed {
			// A non-final unsealed segment means the roll was interrupted
			// after creating the successor; records beyond it would violate
			// sequence continuity, so seal it in place as-is.
			si.sealed = true
			if err := rewriteHeader(si); err != nil {
				return nil, err
			}
		}
		expectSeq = si.endSeq()
		if si.count > 0 {
			s.gate.Advance(si.maxT)
		}
	}

	nextIndex := int64(1)
	if n := len(segs); n > 0 {
		nextIndex = segs[n-1].index + 1
		if last := segs[n-1]; !last.sealed {
			s.active, err = reopenSegment(last)
			if err != nil {
				return nil, err
			}
			segs = segs[:n-1]
		}
	}
	s.sealed = segs
	if s.active == nil {
		s.active, err = createSegment(s.walDir, nextIndex, expectSeq)
		if err != nil {
			return nil, err
		}
	}

	if err := s.loadSnapshotMeta(); err != nil {
		return nil, err
	}
	ok = true
	return s, nil
}

func rewriteHeader(si *segmentInfo) error {
	f, err := os.OpenFile(si.path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	var hdr [segHeaderLen]byte
	encodeHeader(&hdr, si)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	return f.Sync()
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Seq returns the next event sequence number — equivalently, the number of
// events durably recorded over the store's lifetime.
func (s *Store) Seq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active.info.endSeq()
}

// Segments reports the WAL layout, sealed segments first, active last.
func (s *Store) Segments() []SegmentStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentStat, 0, len(s.sealed)+1)
	for i := range s.sealed {
		out = append(out, segStat(&s.sealed[i]))
	}
	out = append(out, segStat(&s.active.info))
	return out
}

func segStat(si *segmentInfo) SegmentStat {
	return SegmentStat{Index: si.index, FirstSeq: si.firstSeq, Count: si.count,
		MinT: si.minT, MaxT: si.maxT, Sealed: si.sealed}
}

// Append durably records a batch. The store's gate admits it as the
// engine's does, in the engine's order, refusing it whole if it reaches
// behind the last recorded timestamp or holds an invalid event. The batch
// is flushed to the OS before Append returns; with Options.Sync it is
// also fsynced.
//
//flowmotif:hotpath
func (s *Store) Append(events []temporal.Event) error {
	if len(events) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	batch, err := s.gate.Admit(events, nil)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sp := s.mxAppend.Start()
	for i := range batch {
		if err := s.active.append(batch[i]); err != nil {
			return s.failLocked(fmt.Errorf("store: append: %w", err))
		}
		// Roll inside the loop so one oversized batch cannot blow past the
		// per-segment cap (which also bounds the [minT, maxT] index
		// granularity that time-range scans rely on to skip segments).
		if s.active.info.count >= int64(s.opts.SegmentEvents) {
			if err := s.rollLocked(); err != nil {
				return s.failLocked(err)
			}
		}
	}
	s.gate.Advance(batch[len(batch)-1].T)
	fsp := obs.Span{}
	if s.opts.Sync {
		fsp = s.mxFsync.Start()
	}
	if err := s.active.flush(s.opts.Sync); err != nil {
		return s.failLocked(fmt.Errorf("store: flush: %w", err))
	}
	fsp.End()
	sp.End()
	return nil
}

// usableLocked reports whether the store can serve operations.
func (s *Store) usableLocked() error {
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.failed != nil {
		return fmt.Errorf("store: failed by earlier write error (reopen to recover): %w", s.failed)
	}
	return nil
}

// failLocked marks the store fail-stop. A mid-batch write error (disk
// full, I/O error, failed roll) can leave a durable prefix of a batch the
// caller was told failed; rather than let a retry wedge on a confusing
// frontier error — or worse, append after a half-applied roll — every
// later operation fails loudly and recovery happens on the next Open,
// which truncates any torn tail and re-derives consistent state.
func (s *Store) failLocked(err error) error {
	if s.failed == nil {
		s.failed = err
	}
	return err
}

// rollLocked seals the active segment and starts a fresh one.
func (s *Store) rollLocked() error {
	defer s.mxSeal.Start().End()
	info, err := s.active.seal()
	if err != nil {
		return fmt.Errorf("store: seal: %w", err)
	}
	s.sealed = append(s.sealed, info)
	s.active, err = createSegment(s.walDir, info.index+1, info.endSeq())
	if err != nil {
		return fmt.Errorf("store: roll: %w", err)
	}
	return nil
}

// snapshotSegments returns a stable view of the WAL (the flushed prefix)
// for lock-free scanning: sealed segments are immutable, and the active
// segment's info is copied at its current flushed count.
func (s *Store) snapshotSegments() ([]segmentInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return nil, err
	}
	if err := s.active.flush(false); err != nil {
		return nil, s.failLocked(err)
	}
	segs := make([]segmentInfo, 0, len(s.sealed)+1)
	segs = append(segs, s.sealed...)
	segs = append(segs, s.active.info)
	return segs, nil
}

// Replay streams every recorded event with sequence number >= fromSeq, in
// order, to fn; returning false stops the replay early. Replay sees the
// state as of the call and does not block concurrent appends.
func (s *Store) Replay(fromSeq int64, fn func(seq int64, ev temporal.Event) bool) error {
	segs, err := s.snapshotSegments()
	if err != nil {
		return err
	}
	for i := range segs {
		si := &segs[i]
		if si.endSeq() <= fromSeq {
			continue
		}
		cont, err := scanSegment(si, fromSeq-si.firstSeq, fn)
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
	}
	return nil
}

// WriteSnapshot durably records a snapshot payload taken at seq (write to
// a temp file, fsync, rename), then prunes snapshots beyond the newest
// keepSnapshots. The caller is responsible for seq actually
// reflecting the payload — internal/server captures both under its ingest
// lock.
func (s *Store) WriteSnapshot(seq int64, payload []byte) error {
	s.mu.Lock()
	if err := s.usableLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if max := s.active.info.endSeq(); seq < 0 || seq > max {
		s.mu.Unlock()
		return fmt.Errorf("store: snapshot seq %d outside recorded range [0, %d]", seq, max)
	}
	s.mu.Unlock()

	snap := Snapshot{
		Version:   SnapshotFileVersion,
		Seq:       seq,
		TakenUnix: time.Now().Unix(),
		Payload:   json.RawMessage(payload),
	}
	data, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("store: snapshot marshal: %w", err)
	}
	tmp, err := os.CreateTemp(s.snapDir, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if _, err := tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: snapshot write: %w", err)
	}
	final := filepath.Join(s.snapDir, fmt.Sprintf("%016d%s", seq, snapSuffix))
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: snapshot rename: %w", err)
	}
	if err := syncDir(s.snapDir); err != nil {
		return err
	}

	s.mu.Lock()
	s.snapSeq = seq
	s.snapAt = time.Now()
	s.hasSnap = true
	s.mu.Unlock()
	s.pruneSnapshots()
	return nil
}

// LoadSnapshot returns the newest decodable snapshot, or (nil, nil) when
// none is usable. Corrupt or future-dated snapshots (seq beyond the WAL,
// possible when an unsynced WAL tail was lost in a machine crash) are
// skipped in favour of an older one — recovery then simply replays more of
// the log.
func (s *Store) LoadSnapshot() (*Snapshot, error) {
	walSeq := s.Seq()
	names, err := s.snapshotFiles()
	if err != nil {
		return nil, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		data, err := os.ReadFile(names[i])
		if err != nil {
			continue
		}
		var snap Snapshot
		if json.Unmarshal(data, &snap) != nil || snap.Version != SnapshotFileVersion {
			continue
		}
		if snap.Seq < 0 || snap.Seq > walSeq {
			continue
		}
		return &snap, nil
	}
	return nil, nil
}

// SnapshotInfo reports the newest snapshot's seq and time (ok false when
// the store has none).
func (s *Store) SnapshotInfo() (seq int64, at time.Time, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapSeq, s.snapAt, s.hasSnap
}

// snapshotFiles lists snapshot paths ordered by seq (oldest first).
func (s *Store) snapshotFiles() ([]string, error) {
	entries, err := os.ReadDir(s.snapDir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	type cand struct {
		seq  int64
		path string
	}
	var cands []cand
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		seq, err := strconv.ParseInt(strings.TrimSuffix(name, snapSuffix), 10, 64)
		if err != nil {
			continue
		}
		cands = append(cands, cand{seq, filepath.Join(s.snapDir, name)})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq < cands[j].seq })
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.path
	}
	return out, nil
}

// loadSnapshotMeta records the newest *usable* snapshot's seq/time — by
// definition the one LoadSnapshot would return — so SnapshotInfo (and
// therefore /healthz freshness monitoring) never advertises a checkpoint
// that recovery would actually skip.
func (s *Store) loadSnapshotMeta() error {
	snap, err := s.LoadSnapshot()
	if err != nil {
		return err
	}
	if snap != nil {
		s.snapSeq, s.snapAt, s.hasSnap = snap.Seq, time.Unix(snap.TakenUnix, 0), true
	}
	return nil
}

// keepSnapshots bounds the retained snapshot files: two, so one corrupt
// latest snapshot still leaves a usable predecessor.
const keepSnapshots = 2

func (s *Store) pruneSnapshots() {
	names, err := s.snapshotFiles()
	if err != nil {
		return
	}
	for len(names) > keepSnapshots {
		os.Remove(names[0])
		names = names[1:]
	}
}

// Close flushes and closes the active segment and releases the directory
// lock. The store cannot be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.failed == nil {
		err = s.active.close(true)
	}
	syscall.Flock(int(s.lock.Fd()), syscall.LOCK_UN)
	if cerr := s.lock.Close(); err == nil {
		err = cerr
	}
	return err
}
