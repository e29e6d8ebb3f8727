package store

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"flowmotif/internal/temporal"
)

// genEvents returns n time-ordered events over a small node universe.
func genEvents(seed int64, n int) []temporal.Event {
	rng := rand.New(rand.NewSource(seed))
	evs := make([]temporal.Event, n)
	t := int64(100)
	for i := range evs {
		t += int64(rng.Intn(4))
		evs[i] = temporal.Event{
			From: temporal.NodeID(rng.Intn(40)),
			To:   temporal.NodeID(rng.Intn(40)),
			T:    t,
			F:    1 + rng.Float64()*9,
		}
	}
	return evs
}

// appendAll appends evs in random batch sizes.
func appendAll(t *testing.T, s *Store, evs []temporal.Event, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < len(evs); {
		n := 1 + rng.Intn(37)
		if i+n > len(evs) {
			n = len(evs) - i
		}
		if err := s.Append(evs[i : i+n]); err != nil {
			t.Fatalf("append [%d,%d): %v", i, i+n, err)
		}
		i += n
	}
}

func replayAll(t *testing.T, s *Store, from int64) []temporal.Event {
	t.Helper()
	var out []temporal.Event
	next := from
	if err := s.Replay(from, func(seq int64, ev temporal.Event) bool {
		if seq != next {
			t.Fatalf("replay seq %d, want %d", seq, next)
		}
		next++
		out = append(out, ev)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func eventsEqual(a, b []temporal.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestAppendReplayRoundTrip(t *testing.T) {
	evs := genEvents(1, 1000)
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, evs, 2)
	if got := s.Seq(); got != int64(len(evs)) {
		t.Fatalf("Seq = %d, want %d", got, len(evs))
	}
	if got := replayAll(t, s, 0); !eventsEqual(got, evs) {
		t.Fatalf("live replay mismatch: %d events", len(got))
	}
	if got, want := replayAll(t, s, 900), evs[900:]; !eventsEqual(got, want) {
		t.Fatalf("suffix replay mismatch: %d events, want %d", len(got), len(want))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean reopen: same contents, appends continue the sequence.
	s2, err := Open(dir, Options{SegmentEvents: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Seq(); got != int64(len(evs)) {
		t.Fatalf("reopened Seq = %d, want %d", got, len(evs))
	}
	if got := replayAll(t, s2, 0); !eventsEqual(got, evs) {
		t.Fatal("reopened replay mismatch")
	}
	more := genEvents(3, 50)
	last := evs[len(evs)-1].T
	for i := range more {
		more[i].T += last
	}
	appendAll(t, s2, more, 4)
	if got := s2.Seq(); got != int64(len(evs)+len(more)) {
		t.Fatalf("Seq after more = %d, want %d", got, len(evs)+len(more))
	}
	if got, want := replayAll(t, s2, int64(len(evs))), more; !eventsEqual(got, want) {
		t.Fatal("appended-after-reopen replay mismatch")
	}
}

func TestSealedSegmentIndexHeaders(t *testing.T) {
	evs := genEvents(5, 500)
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentEvents: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	appendAll(t, s, evs, 6)

	segs := s.Segments()
	if len(segs) < 5 {
		t.Fatalf("want >= 5 segments at SegmentEvents=100 for %d events, got %d", len(evs), len(segs))
	}
	seq := int64(0)
	idx := 0
	for i, sg := range segs {
		if sg.FirstSeq != seq {
			t.Fatalf("segment %d FirstSeq = %d, want %d", i, sg.FirstSeq, seq)
		}
		if sealed := i < len(segs)-1; sg.Sealed != sealed {
			t.Fatalf("segment %d sealed = %v, want %v", i, sg.Sealed, sealed)
		}
		if sg.Count > 0 {
			lo, hi := evs[idx].T, evs[idx+int(sg.Count)-1].T
			if sg.MinT != lo || sg.MaxT != hi {
				t.Fatalf("segment %d index [%d,%d], want [%d,%d]", i, sg.MinT, sg.MaxT, lo, hi)
			}
		}
		seq += sg.Count
		idx += int(sg.Count)
	}
	if seq != int64(len(evs)) {
		t.Fatalf("segments cover %d events, want %d", seq, len(evs))
	}
}

// activeSegmentPath returns the newest segment file (the append target).
func activeSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal", "*.seg"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	sort.Strings(paths)
	return paths[len(paths)-1]
}

func TestTornRecordTruncatedOnRecovery(t *testing.T) {
	evs := genEvents(7, 300)
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, evs, 8)
	// Simulate a crash mid-write: chop 13 bytes off the final record,
	// leaving a torn tail. (Close only releases the directory flock;
	// every acknowledged batch was already flushed, as after a crash.)
	s.Close()
	path := activeSegmentPath(t, dir)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-13); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	want := int64(len(evs) - 1)
	if got := s2.Seq(); got != want {
		t.Fatalf("recovered Seq = %d, want %d (torn record dropped)", got, want)
	}
	if got := replayAll(t, s2, 0); !eventsEqual(got, evs[:want]) {
		t.Fatal("recovered replay mismatch")
	}
	// The store stays writable after recovery.
	next := temporal.Event{From: 1, To: 2, T: evs[len(evs)-1].T + 10, F: 1}
	if err := s2.Append([]temporal.Event{next}); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if got := s2.Seq(); got != want+1 {
		t.Fatalf("Seq after recovery append = %d, want %d", got, want+1)
	}
}

func TestCorruptRecordDropsTail(t *testing.T) {
	evs := genEvents(9, 100)
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentEvents: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(evs); err != nil {
		t.Fatal(err)
	}
	s.Close() // release the flock; the data is already on disk
	// Flip one payload byte in record 60: recovery must keep [0, 60) and
	// drop everything from the corruption on.
	path := activeSegmentPath(t, dir)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(segHeaderLen + 60*recLen + 20)
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Seq(); got != 60 {
		t.Fatalf("recovered Seq = %d, want 60", got)
	}
	if got := replayAll(t, s2, 0); !eventsEqual(got, evs[:60]) {
		t.Fatal("recovered prefix mismatch")
	}
}

func TestAppendValidation(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append([]temporal.Event{{From: 0, To: 1, T: 100, F: 5}}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		ev   temporal.Event
	}{
		{"behind frontier", temporal.Event{From: 0, To: 1, T: 50, F: 1}},
		{"negative node", temporal.Event{From: -1, To: 1, T: 200, F: 1}},
		{"zero flow", temporal.Event{From: 0, To: 1, T: 200, F: 0}},
	}
	for _, c := range cases {
		if err := s.Append([]temporal.Event{c.ev}); err == nil {
			t.Errorf("%s: Append accepted %+v", c.name, c.ev)
		}
	}
	if got := s.Seq(); got != 1 {
		t.Fatalf("rejected batches must not advance Seq: got %d", got)
	}
}

func TestSnapshotWriteLoadFallback(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(genEvents(11, 40)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadSnapshot(); err != nil {
		t.Fatal(err)
	}

	type payload struct {
		Tag string `json:"tag"`
	}
	write := func(seq int64, tag string) {
		t.Helper()
		data, _ := json.Marshal(payload{Tag: tag})
		if err := s.WriteSnapshot(seq, data); err != nil {
			t.Fatalf("snapshot at %d: %v", seq, err)
		}
	}
	write(10, "a")
	write(25, "b")
	write(40, "c")

	if err := s.WriteSnapshot(41, nil); err == nil {
		t.Fatal("snapshot beyond the WAL must be rejected")
	}

	snap, err := s.LoadSnapshot()
	if err != nil || snap == nil {
		t.Fatalf("LoadSnapshot: %v, %v", snap, err)
	}
	var p payload
	if json.Unmarshal(snap.Payload, &p) != nil || p.Tag != "c" || snap.Seq != 40 {
		t.Fatalf("newest snapshot = seq %d tag %q, want 40/c", snap.Seq, p.Tag)
	}

	// Corrupt the newest snapshot file: loading falls back to "b".
	if err := os.WriteFile(filepath.Join(dir, "snap", "0000000000000040.snap"), []byte("junk{"), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err = s.LoadSnapshot()
	if err != nil || snap == nil {
		t.Fatalf("fallback LoadSnapshot: %v, %v", snap, err)
	}
	if json.Unmarshal(snap.Payload, &p) != nil || p.Tag != "b" || snap.Seq != 25 {
		t.Fatalf("fallback snapshot = seq %d tag %q, want 25/b", snap.Seq, p.Tag)
	}

	// Reopen: snapshot metadata is rediscovered from disk, skipping the
	// corrupt newest file — health monitoring must never advertise a
	// checkpoint recovery would not actually use.
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if seq, _, ok := s2.SnapshotInfo(); !ok || seq != 25 {
		t.Fatalf("reopened SnapshotInfo = %d/%v, want 25/true (corrupt newest skipped)", seq, ok)
	}
}

func TestSnapshotPruning(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(genEvents(13, 10)); err != nil {
		t.Fatal(err)
	}
	for _, seq := range []int64{2, 4, 6, 8} {
		if err := s.WriteSnapshot(seq, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := filepath.Glob(filepath.Join(dir, "snap", "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("retained %d snapshots, want 2: %v", len(paths), paths)
	}
}

func TestWriteErrorFailsStop(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	evs := genEvents(21, 20)
	if err := s.Append(evs[:10]); err != nil {
		t.Fatal(err)
	}
	// Sabotage the active segment's fd: the next flush must fail, and the
	// store must go fail-stop instead of wedging retries on a confusing
	// frontier error over a half-applied batch.
	s.active.f.Close()
	if err := s.Append(evs[10:]); err == nil {
		t.Fatal("append over a broken fd succeeded")
	}
	if err := s.Append(evs[10:]); err == nil || !strings.Contains(err.Error(), "failed by earlier write error") {
		t.Fatalf("retry after failure: %v, want sticky fail-stop error", err)
	}
	if err := s.Replay(0, func(int64, temporal.Event) bool { return true }); err == nil {
		t.Fatal("replay on a failed store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close of failed store: %v", err)
	}
	// Reopen recovers whatever was durable; the store is usable again.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Seq(); got != 10 {
		t.Fatalf("recovered Seq = %d, want 10", got)
	}
	if err := s2.Append(evs[10:]); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

func TestOpenLocksDataDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second Open of a locked data dir succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()
}

func TestInterruptedRollHealsOnOpen(t *testing.T) {
	// Simulate a crash between sealing a segment and creating its
	// successor by clearing the sealed flag of a non-final segment: Open
	// must re-seal it and keep the sequence numbering intact.
	evs := genEvents(15, 200)
	dir := t.TempDir()
	s, err := Open(dir, Options{SegmentEvents: 50})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, evs, 16)
	s.Close()

	paths, err := filepath.Glob(filepath.Join(dir, "wal", "*.seg"))
	if err != nil || len(paths) < 3 {
		t.Fatalf("want >= 3 segments, got %v (%v)", paths, err)
	}
	sort.Strings(paths)
	f, err := os.OpenFile(paths[1], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0, 0, 0, 0}, 8); err != nil { // sealed flag
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, Options{SegmentEvents: 50})
	if err != nil {
		t.Fatalf("heal open: %v", err)
	}
	defer s2.Close()
	if got := s2.Seq(); got != int64(len(evs)) {
		t.Fatalf("healed Seq = %d, want %d", got, len(evs))
	}
	if got := replayAll(t, s2, 0); !eventsEqual(got, evs) {
		t.Fatal("healed replay mismatch")
	}
}
