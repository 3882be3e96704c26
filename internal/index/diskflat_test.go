package index

// Tests for the disk-resident flat tier. Three properties carry the
// atlas-scale read path: (1) a DiskFlat answers every search bitwise
// identically to the in-RAM flat scan — including after close/reopen, after
// post-open tail adds, and across tail spills; (2) the segment build is
// crash-safe — the sweep below injects a torn or sticky write at every IO
// operation of the build and requires that Open afterwards either refuses
// the file or serves a provably complete segment, never a corrupt one; and
// (3) every way a segment file can rot (flipped byte anywhere, truncation)
// is detected at Open and reported as ErrBadSegment so the caller rebuilds
// from its durable store.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"modellake/internal/fault"
	"modellake/internal/tensor"
)

func buildSegment(t *testing.T, path string, metric Metric, cfg QuantConfig, ids []string, vecs []tensor.Vector) *DiskFlat {
	t.Helper()
	d, err := BuildDiskFlat(path, nil, metric, cfg, ids, func(i int) []float64 { return vecs[i] })
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiskFlatChecksumsRoundTrip pins the published checksum pair to the
// SegmentChecksums helper the lake uses to decide segment reuse.
func TestDiskFlatChecksumsRoundTrip(t *testing.T) {
	const n, dim = 64, 8
	vecs := randomVecs(t, n, dim, 7)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("id%04d", i)
	}
	path := filepath.Join(t.TempDir(), "vec.seg")
	d := buildSegment(t, path, Cosine, QuantConfig{}, ids, vecs)
	defer d.Close()
	wantIDs, wantData := SegmentChecksums(ids, func(i int) []float64 { return vecs[i] })
	gotIDs, gotData := d.Checksums()
	if gotIDs != wantIDs || gotData != wantData {
		t.Fatalf("checksums (%x,%x) != SegmentChecksums (%x,%x)", gotIDs, gotData, wantIDs, wantData)
	}
	if d.SegmentLen() != n || d.Len() != n {
		t.Fatalf("len %d/%d != %d", d.SegmentLen(), d.Len(), n)
	}
}

// TestDiskFlatTailSpill drives enough post-open adds through a small spill
// threshold to force several compactions and requires (a) the tail is
// actually bounded, (b) search stays bitwise identical to the oracle
// throughout, and (c) the compacted segment revalidates and reopens clean.
func TestDiskFlatTailSpill(t *testing.T) {
	const n, dim, spill = 30, 8, 10
	total := 150
	vecs := randomVecs(t, total, dim, 55)
	ids := make([]string, total)
	for i := range ids {
		ids[i] = fmt.Sprintf("id%04d", i)
	}
	path := filepath.Join(t.TempDir(), "vec.seg")
	cfg := QuantConfig{SpillTailRows: spill}
	d := buildSegment(t, path, Cosine, cfg, ids[:n], vecs[:n])
	q := randomVecs(t, 1, dim, 77)[0]
	for i := n; i < total; i++ {
		if err := d.Add(ids[i], vecs[i]); err != nil {
			t.Fatal(err)
		}
		if tailRows := d.Len() - d.SegmentLen(); tailRows > spill {
			t.Fatalf("after %d adds: tail %d rows exceeds spill threshold %d", i-n+1, tailRows, spill)
		}
		got, err := d.Search(context.Background(), q, 7)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceSearch(Cosine, ids[:i+1], vecs[:i+1], q, 7)
		assertBitwiseEqual(t, fmt.Sprintf("after add %d", i), got, want)
	}
	if d.SegmentLen() < total-spill {
		t.Fatalf("segment holds %d of %d rows; spill never ran", d.SegmentLen(), total)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d, err := OpenDiskFlat(path, nil, Cosine, cfg)
	if err != nil {
		t.Fatalf("reopen after spills: %v", err)
	}
	defer d.Close()
	got, err := d.Search(context.Background(), q, 7)
	if err != nil {
		t.Fatal(err)
	}
	count := d.Len()
	assertBitwiseEqual(t, "reopened after spills", got, referenceSearch(Cosine, ids[:count], vecs[:count], q, 7))
}

// switchInjector lets a test change the fault plan of the filesystem an index
// was built on: healthy while nil, then whatever plan is set.
type switchInjector struct {
	mu  sync.Mutex
	inj fault.Injector
}

func (s *switchInjector) set(inj fault.Injector) {
	s.mu.Lock()
	s.inj = inj
	s.mu.Unlock()
}

func (s *switchInjector) Apply(op fault.Op, path string) error {
	s.mu.Lock()
	inj := s.inj
	s.mu.Unlock()
	if inj == nil {
		return nil
	}
	return inj.Apply(op, path)
}

// TestDiskFlatSpillFailureKeepsRow is the crash-window sweep of a spill
// triggered from Add. A torn or sticky fault at every IO operation of the
// compaction (segment and, in PQ mode, side file) must not turn into an Add
// failure: the row was already indexed, so Add returns nil, the failure is
// counted, Len and Search stay bitwise equal to the reference over every row
// added, the next Add on a healthy filesystem completes the spill, and the
// segment left on disk validates.
func TestDiskFlatSpillFailureKeepsRow(t *testing.T) {
	const n, dim, spill, k = 40, 8, 10, 7
	vecs := randomVecs(t, n+spill+1, dim, 88)
	ids := seqIDs(len(vecs))
	q := randomVecs(t, 1, dim, 89)[0]
	for name, cfg := range map[string]QuantConfig{
		"int8": {SpillTailRows: spill},
		"pq":   {SpillTailRows: spill, PQSubspaces: 4, PQTrainRows: 32, Seed: 5},
	} {
		// almostFull returns an index one Add short of a spill.
		almostFull := func(sw *switchInjector) *DiskFlat {
			path := filepath.Join(t.TempDir(), "vec.seg")
			d, err := BuildDiskFlat(path, fault.New(sw), Cosine, cfg, ids[:n], func(i int) []float64 { return vecs[i] })
			if err != nil {
				t.Fatal(err)
			}
			for i := n; i < n+spill-1; i++ {
				if err := d.Add(ids[i], vecs[i]); err != nil {
					t.Fatal(err)
				}
			}
			return d
		}
		check := func(label string, d *DiskFlat, rows int) {
			t.Helper()
			if d.Len() != rows {
				t.Fatalf("%s: Len = %d, want %d", label, d.Len(), rows)
			}
			got, err := d.Search(context.Background(), q, k)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertBitwiseEqual(t, label, got, referenceSearch(Cosine, ids[:rows], vecs[:rows], q, k))
		}

		// Pass 0: record the op sequence of a clean spill.
		sw, rec := &switchInjector{}, &fault.Recorder{}
		d := almostFull(sw)
		sw.set(rec)
		if err := d.Add(ids[n+spill-1], vecs[n+spill-1]); err != nil {
			t.Fatal(err)
		}
		ops := rec.Ops()
		if d.SegmentLen() != n+spill || len(ops) < 8 {
			t.Fatalf("%s: clean spill left %d segment rows after %d ops: %v", name, d.SegmentLen(), len(ops), ops)
		}
		d.Close()

		for _, mode := range []string{"torn", "sticky"} {
			failed := 0
			for at := 1; at <= len(ops); at++ {
				label := fmt.Sprintf("%s %s@%d (%v)", name, mode, at, ops[at-1])
				sw := &switchInjector{}
				d := almostFull(sw)
				sw.set(&fault.Script{FailAt: at, Torn: 7, Sticky: mode == "sticky"})
				before := spillFailures.Value()
				if err := d.Add(ids[n+spill-1], vecs[n+spill-1]); err != nil {
					t.Fatalf("%s: Add failed for a row it kept: %v", label, err)
				}
				// The one op after the swap — closing the old handle — cannot
				// fail the spill any more; every earlier one must leave the
				// previous segment in place and be counted.
				spillFailed := d.SegmentLen() == n
				if !spillFailed && d.SegmentLen() != n+spill {
					t.Fatalf("%s: segment holds %d rows", label, d.SegmentLen())
				}
				if counted := spillFailures.Value() - before; (counted == 1) != spillFailed || counted > 1 {
					t.Fatalf("%s: spill failed=%v but %d failures counted", label, spillFailed, counted)
				}
				if spillFailed {
					failed++
				}
				check(label+" after fault", d, n+spill)

				sw.set(nil)
				if err := d.Add(ids[n+spill], vecs[n+spill]); err != nil {
					t.Fatalf("%s: Add on healed filesystem: %v", label, err)
				}
				if spillFailed && d.SegmentLen() != n+spill+1 {
					t.Fatalf("%s: retry left %d of %d rows in the segment", label, d.SegmentLen(), n+spill+1)
				}
				check(label+" healed", d, n+spill+1)
				segRows := d.SegmentLen()
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				od, err := OpenDiskFlat(d.path, nil, Cosine, cfg)
				if err != nil {
					t.Fatalf("%s: reopen: %v", label, err)
				}
				if od.SegmentLen() != segRows {
					t.Fatalf("%s: reopened %d segment rows, want %d", label, od.SegmentLen(), segRows)
				}
				check(label+" reopened", od, segRows)
				od.Close()
			}
			if failed < len(ops)-1 {
				t.Fatalf("%s %s: only %d of %d fault points failed the spill", name, mode, failed, len(ops))
			}
		}
	}
}

// TestSegmentFormatPinned pins the bytes on disk: for a fixed seed the MLVF1
// segment and the MLPQ1 side file a build writes — under the int8 and the PQ
// configuration, and again after a tail spill rewrote both — hash to what
// the commit before the shared core produced, so the formats cannot drift.
func TestSegmentFormatPinned(t *testing.T) {
	const (
		n, dim  = 200, 16
		segment = "99e053ebe87f4d3e1a246a903977b46519fc786abaf134412866a9e004da5b61"
	)
	vecs := randomVecs(t, n, dim, 2025)
	ids := seqIDs(n)
	pq := QuantConfig{PQSubspaces: 8, PQTrainRows: 32, Seed: 77}
	spill := pq
	spill.SpillTailRows = 10
	for _, tc := range []struct {
		name  string
		cfg   QuantConfig
		built int    // rows in the first build; the rest arrive through Add
		side  string // SHA-256 of the .pq side file, empty when none is written
	}{
		{"int8", QuantConfig{}, n, ""},
		{"pq", pq, n, "b71ac49cbdab614ca0eba534f62375f2c800900600971671a2fcd2d1c28e082e"},
		{"pq spilled", spill, n - 10, "e7edbded25b7f603a4c9418eb640975a6a41d22b2eec605c24a69bde3ab7fe17"},
	} {
		path := filepath.Join(t.TempDir(), "vec.seg")
		d := buildSegment(t, path, Cosine, tc.cfg, ids[:tc.built], vecs[:tc.built])
		for i := tc.built; i < n; i++ {
			if err := d.Add(ids[i], vecs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if d.SegmentLen() != n {
			t.Fatalf("%s: segment holds %d rows, want %d", tc.name, d.SegmentLen(), n)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		sha := func(file string) string {
			b, err := os.ReadFile(file)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			sum := sha256.Sum256(b)
			return hex.EncodeToString(sum[:])
		}
		if got := sha(path); got != segment {
			t.Errorf("%s: segment sha256 %s, want %s", tc.name, got, segment)
		}
		if tc.side == "" {
			if _, err := os.Stat(pqSidePath(path)); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("%s: unexpected side file (stat err %v)", tc.name, err)
			}
		} else if got := sha(pqSidePath(path)); got != tc.side {
			t.Errorf("%s: side file sha256 %s, want %s", tc.name, got, tc.side)
		}
	}
}

// TestDiskFlatCrashSweep is the build-time crash-window sweep. A recorder
// pass enumerates every filesystem operation of a segment build; the sweep
// then re-runs the build once per operation with a torn write (a prefix of
// the bytes land) and once with a sticky failure injected at that point.
// After each simulated crash the invariant is checked from a clean
// filesystem: OpenDiskFlat either refuses the leftover file, or — when the
// fault hit after publish (dir sync, reopen) — serves a segment whose
// checksums, length, and search answers are exactly those of the completed
// build. A fresh build over the crash debris must then succeed and answer
// bitwise identically to the in-RAM oracle.
func TestDiskFlatCrashSweep(t *testing.T) {
	const n, dim, k = 60, 8, 5
	vecs := randomVecs(t, n, dim, 123)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("id%04d", i)
	}
	row := func(i int) []float64 { return vecs[i] }
	wantIDs, wantData := SegmentChecksums(ids, row)
	q := randomVecs(t, 1, dim, 321)[0]
	want := referenceSearch(Cosine, ids, vecs, q, k)

	// Pass 0: record the op sequence of a clean build.
	rec := &fault.Recorder{}
	cleanDir := t.TempDir()
	d, err := BuildDiskFlat(filepath.Join(cleanDir, "vec.seg"), fault.New(rec), Cosine, QuantConfig{}, ids, row)
	if err != nil {
		t.Fatal(err)
	}
	ops := rec.Ops() // before Close, which also routes through the recorder
	d.Close()
	if len(ops) < 8 {
		t.Fatalf("recorded only %d ops; the sweep would be vacuous: %v", len(ops), ops)
	}

	for _, mode := range []string{"torn", "sticky"} {
		for at := 1; at <= len(ops); at++ {
			script := &fault.Script{FailAt: at}
			if mode == "torn" {
				script.Torn = 7
			} else {
				script.Sticky = true
			}
			dir := t.TempDir()
			path := filepath.Join(dir, "vec.seg")
			_, err := BuildDiskFlat(path, fault.New(script), Cosine, QuantConfig{}, ids, row)
			if err == nil {
				t.Fatalf("%s@%d (%v): build reported success despite injected fault", mode, at, ops[at-1])
			}

			// Crash simulated. Recovery sees a healthy filesystem.
			od, err := OpenDiskFlat(path, nil, Cosine, QuantConfig{})
			if err == nil {
				gotIDs, gotData := od.Checksums()
				if od.SegmentLen() != n || gotIDs != wantIDs || gotData != wantData {
					t.Fatalf("%s@%d (%v): opened a partial segment: len=%d crc=(%x,%x)",
						mode, at, ops[at-1], od.SegmentLen(), gotIDs, gotData)
				}
				got, serr := od.Search(context.Background(), q, k)
				if serr != nil {
					t.Fatal(serr)
				}
				assertBitwiseEqual(t, fmt.Sprintf("%s@%d survivor", mode, at), got, want)
				od.Close()
			}

			// Rebuild over the debris must converge to a good segment.
			rd, err := BuildDiskFlat(path, nil, Cosine, QuantConfig{}, ids, row)
			if err != nil {
				t.Fatalf("%s@%d (%v): rebuild failed: %v", mode, at, ops[at-1], err)
			}
			got, serr := rd.Search(context.Background(), q, k)
			if serr != nil {
				t.Fatal(serr)
			}
			assertBitwiseEqual(t, fmt.Sprintf("%s@%d rebuilt", mode, at), got, want)
			rd.Close()
		}
	}
}

// TestDiskFlatDetectsCorruption flips bytes across every region of a valid
// segment file — header, ids section, padding, first and last row — and
// truncates it, requiring OpenDiskFlat to refuse each variant with
// ErrBadSegment.
func TestDiskFlatDetectsCorruption(t *testing.T) {
	const n, dim = 50, 8
	vecs := randomVecs(t, n, dim, 44)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("id%04d", i)
	}
	path := filepath.Join(t.TempDir(), "vec.seg")
	d := buildSegment(t, path, Cosine, QuantConfig{}, ids, vecs)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dataOff := len(pristine) - n*dim*8

	reopen := func(label string) {
		t.Helper()
		od, err := OpenDiskFlat(path, nil, Cosine, QuantConfig{})
		if err == nil {
			od.Close()
			t.Fatalf("%s: corrupt segment opened clean", label)
		}
		if !errors.Is(err, ErrBadSegment) {
			t.Fatalf("%s: error %v does not wrap ErrBadSegment", label, err)
		}
	}
	for _, off := range []int{0, 8, 40, 63, 64, 100, dataOff - 1, dataOff, dataOff + 7, len(pristine) - 1} {
		mut := append([]byte(nil), pristine...)
		mut[off] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		reopen(fmt.Sprintf("flip@%d", off))
	}
	if err := os.WriteFile(path, pristine[:len(pristine)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	reopen("truncated")

	// Wrong metric is a configuration mismatch, same rejection.
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	reopen2, err := OpenDiskFlat(path, nil, L2, QuantConfig{})
	if err == nil {
		reopen2.Close()
		t.Fatal("metric mismatch opened clean")
	}
	if !errors.Is(err, ErrBadSegment) {
		t.Fatalf("metric mismatch: error %v does not wrap ErrBadSegment", err)
	}

	// And the pristine bytes still open, proving the harness corrupted the
	// right file rather than testing a permanently broken fixture.
	od, err := OpenDiskFlat(path, nil, Cosine, QuantConfig{})
	if err != nil {
		t.Fatalf("pristine reopen: %v", err)
	}
	od.Close()
}

// TestDiskFlatClosed pins the closed-handle contract.
func TestDiskFlatClosed(t *testing.T) {
	const n, dim = 10, 4
	vecs := randomVecs(t, n, dim, 3)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("id%02d", i)
	}
	path := filepath.Join(t.TempDir(), "vec.seg")
	d := buildSegment(t, path, Cosine, QuantConfig{}, ids, vecs)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, err := d.Search(context.Background(), vecs[0], 1); err == nil {
		t.Fatal("search after close succeeded")
	}
	if err := d.Add("late", vecs[0]); err == nil {
		t.Fatal("add after close succeeded")
	}
}

// TestDiskFlatDistanceBitsSanity guards the oracle itself: distances coming
// back from the disk tier must be real float64s, not NaNs that a broken
// comparison would sort arbitrarily.
func TestDiskFlatDistanceBitsSanity(t *testing.T) {
	const n, dim = 20, 8
	vecs := randomVecs(t, n, dim, 9)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("id%02d", i)
	}
	path := filepath.Join(t.TempDir(), "vec.seg")
	d := buildSegment(t, path, L2, QuantConfig{}, ids, vecs)
	defer d.Close()
	res, err := d.Search(context.Background(), vecs[3], 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 || res[0].ID != ids[3] || res[0].Distance != 0 {
		t.Fatalf("self-query: %+v", res)
	}
	for _, r := range res {
		if math.IsNaN(r.Distance) || math.IsInf(r.Distance, 0) {
			t.Fatalf("non-finite distance: %+v", r)
		}
	}
}
