package index

// Tests for the PQ tier on disk-resident segments. The identity contract
// through build, reopen and tail adds is a cell of the matrix suite
// (matrix_test.go); three disk-specific properties are pinned here: (1) a
// PQ-mode DiskFlat stays bitwise identical to the oracle across spills, which
// reuse the trained codebook; (2) the MLPQ1 side file is pure derived
// acceleration — corrupt, stale, or missing side files never change
// answers or fail an open (the tier retrains from the verified segment
// rows), while segment corruption itself still refuses to open; and (3) the
// build-time crash sweep holds with the side-file IO in the op window.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"modellake/internal/fault"
)

func pqDiskCfg() QuantConfig {
	return QuantConfig{PQSubspaces: 8, PQTrainRows: 32, Seed: 77}
}

// TestDiskFlatPQSideFile pins the side file's derived-state contract: a
// pristine side file adopts; a corrupt or missing one is ignored (open
// succeeds, answers identical, and open republishes a valid replacement);
// and a flipped byte in the segment itself still refuses to open — the
// side file never weakens segment verification.
func TestDiskFlatPQSideFile(t *testing.T) {
	const n, dim, k = 300, 16, 7
	vecs := randomVecs(t, n, dim, 83)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("id%04d", i)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "vec.seg")
	d := buildSegment(t, path, Cosine, pqDiskCfg(), ids, vecs)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	side := pqSidePath(path)
	pristine, err := os.ReadFile(side)
	if err != nil {
		t.Fatalf("build did not publish a side file: %v", err)
	}
	q := randomVecs(t, 1, dim, 97)[0]
	want := referenceSearch(Cosine, ids, vecs, q, k)

	reopenAndCheck := func(label string, wantAdopt bool) {
		t.Helper()
		od, err := OpenDiskFlat(path, nil, Cosine, pqDiskCfg())
		if err != nil {
			t.Fatalf("%s: open: %v", label, err)
		}
		defer od.Close()
		if !od.pq().ready() {
			t.Fatalf("%s: reopened tier untrained", label)
		}
		// Adoption must be idempotent on the (possibly republished) side
		// file; a corrupt one was required to have been replaced by open's
		// best-effort rewrite before we got here.
		if got := od.adoptPQSideFile(); got != wantAdopt {
			t.Fatalf("%s: adoptPQSideFile = %v, want %v", label, got, wantAdopt)
		}
		res, err := od.Search(context.Background(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwiseEqual(t, label, res, want)
	}

	reopenAndCheck("pristine side file", true)

	// Flip one byte everywhere interesting: header, codebook, codes.
	for _, off := range []int{0, 20, 57, pqSideHeaderSize + 9, len(pristine) - 1} {
		mut := append([]byte(nil), pristine...)
		mut[off] ^= 0x20
		if err := os.WriteFile(side, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		reopenAndCheck(fmt.Sprintf("side flip@%d", off), true)
	}

	// Truncated and missing side files are equally ignorable.
	if err := os.WriteFile(side, pristine[:len(pristine)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	reopenAndCheck("side truncated", true)
	if err := os.Remove(side); err != nil {
		t.Fatal(err)
	}
	reopenAndCheck("side missing", true)

	// A valid side file bound to different segment contents (stale after an
	// out-of-band rebuild) must be rejected by the binding CRCs, then
	// replaced.
	otherPath := filepath.Join(dir, "other.seg")
	otherVecs := randomVecs(t, n, dim, 84)
	od := buildSegment(t, otherPath, Cosine, pqDiskCfg(), ids, otherVecs)
	if err := od.Close(); err != nil {
		t.Fatal(err)
	}
	stale, err := os.ReadFile(pqSidePath(otherPath))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(side, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	reopenAndCheck("side stale", true)

	// Segment corruption still refuses to open, side file or not.
	segBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), segBytes...)
	mut[len(mut)-3] ^= 0x40
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if bad, err := OpenDiskFlat(path, nil, Cosine, pqDiskCfg()); err == nil {
		bad.Close()
		t.Fatal("corrupt segment opened clean in PQ mode")
	} else if !errors.Is(err, ErrBadSegment) {
		t.Fatalf("segment corruption: error %v does not wrap ErrBadSegment", err)
	}
}

// TestDiskFlatPQTailSpill drives post-open adds through a small spill
// threshold and requires identity throughout, plus the spill-time tier
// reuse: compaction must carry the trained codebook over by pointer instead
// of retraining.
func TestDiskFlatPQTailSpill(t *testing.T) {
	const n, dim, spill = 40, 16, 10
	total := 120
	vecs := randomVecs(t, total, dim, 155)
	ids := make([]string, total)
	for i := range ids {
		ids[i] = fmt.Sprintf("id%04d", i)
	}
	path := filepath.Join(t.TempDir(), "vec.seg")
	cfg := pqDiskCfg()
	cfg.SpillTailRows = spill
	d := buildSegment(t, path, Cosine, cfg, ids[:n], vecs[:n])
	cb := d.pq().cb
	if cb == nil {
		t.Fatal("PQ tier untrained after build above PQTrainRows")
	}
	q := randomVecs(t, 1, dim, 177)[0]
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
	if d.pq().cb != cb {
		t.Fatal("spill retrained the PQ codebook instead of reusing it")
	}
	if len(d.pq().codes) != d.Len()*cb.m {
		t.Fatalf("codes cover %d bytes, want %d rows x %d", len(d.pq().codes), d.Len(), cb.m)
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

// TestDiskFlatPQCrashSweep re-runs the build-time crash-window sweep with
// the PQ side-file IO inside the op window: a recorder pass enumerates every
// filesystem operation of a clean PQ-mode build (segment and side file),
// then each op point gets a torn write and a sticky failure. The invariant
// is the same as the plain sweep — the faulted build must report failure,
// recovery either refuses the leftovers or serves a provably complete
// segment with oracle-identical answers, and a rebuild over the debris
// converges — with the extra twist that a crash between segment publish and
// side-file publish must leave a segment that opens, retrains, and still
// answers exactly.
func TestDiskFlatPQCrashSweep(t *testing.T) {
	const n, dim, k = 60, 16, 5
	vecs := randomVecs(t, n, dim, 223)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("id%04d", i)
	}
	row := func(i int) []float64 { return vecs[i] }
	wantIDs, wantData := SegmentChecksums(ids, row)
	q := randomVecs(t, 1, dim, 421)[0]
	want := referenceSearch(Cosine, ids, vecs, q, k)

	rec := &fault.Recorder{}
	cleanDir := t.TempDir()
	d, err := BuildDiskFlat(filepath.Join(cleanDir, "vec.seg"), fault.New(rec), Cosine, pqDiskCfg(), ids, row)
	if err != nil {
		t.Fatal(err)
	}
	ops := rec.Ops()
	d.Close()
	if len(ops) < 10 {
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
			_, err := BuildDiskFlat(path, fault.New(script), Cosine, pqDiskCfg(), ids, row)
			if err == nil {
				t.Fatalf("%s@%d (%v): build reported success despite injected fault", mode, at, ops[at-1])
			}

			od, err := OpenDiskFlat(path, nil, Cosine, pqDiskCfg())
			if err == nil {
				gotIDs, gotData := od.Checksums()
				if od.SegmentLen() != n || gotIDs != wantIDs || gotData != wantData {
					t.Fatalf("%s@%d (%v): opened a partial segment: len=%d crc=(%x,%x)",
						mode, at, ops[at-1], od.SegmentLen(), gotIDs, gotData)
				}
				if !od.pq().ready() {
					t.Fatalf("%s@%d: surviving segment opened with untrained tier", mode, at)
				}
				got, serr := od.Search(context.Background(), q, k)
				if serr != nil {
					t.Fatal(serr)
				}
				assertBitwiseEqual(t, fmt.Sprintf("%s@%d survivor", mode, at), got, want)
				od.Close()
			}

			rd, err := BuildDiskFlat(path, nil, Cosine, pqDiskCfg(), ids, row)
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
