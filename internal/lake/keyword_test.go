package lake

// Lake-level contract for disk-resident keyword postings (DESIGN.md §13):
// the knob is validated, answers are bitwise-identical to the in-memory map
// scorer, reopened lakes adopt published segments only when their per-doc
// text CRCs still match the registry's cards, and damaged or deleted segment
// files are pure acceleration state — reopen rebuilds from cards and every
// answer stays identical.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"modellake/internal/obs"
	"modellake/internal/search"
)

// kwQueries exercises common terms, rare terms, multi-token mixes, and a
// token that matches nothing.
var kwQueries = []string{
	"legal statute court",
	"medical clinical",
	"finance model",
	"transformer",
	"nonexistenttoken42",
	"legal legal court",
}

func collectKeyword(t *testing.T, l *Lake, k int) map[string][]search.Hit {
	t.Helper()
	out := map[string][]search.Hit{}
	for _, q := range kwQueries {
		hits, err := l.SearchKeywordContext(context.Background(), q, k)
		if err != nil {
			t.Fatalf("SearchKeyword(%q): %v", q, err)
		}
		out[q] = hits
	}
	return out
}

func TestDiskResidentPostingsConfigValidation(t *testing.T) {
	if _, err := Open(Config{DiskResidentPostings: true}); err == nil {
		t.Fatal("Open accepted DiskResidentPostings without Dir")
	} else if !strings.Contains(err.Error(), "requires Dir") {
		t.Fatalf("error %q does not mention requires Dir", err)
	}
}

// TestDiskPostingsLakeMatchesMapScorer ingests one population into a plain
// in-memory lake and a disk-resident-postings lake (with a tiny merge
// threshold so segments actually form at test sizes, plus mid-stream card
// replacements to force demotions) and requires bitwise-identical keyword
// answers — then again after a reopen that adopts the published segments,
// and again after every flavour of segment-file damage.
func TestDiskPostingsLakeMatchesMapScorer(t *testing.T) {
	pop := population(t, 91)
	plain, err := Open(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	dir := t.TempDir()
	cfg := Config{Dir: dir, Seed: 1, DiskResidentPostings: true, KeywordMergeThreshold: 3}
	disk, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	pIDs := fill(t, plain, pop)
	dIDs := fill(t, disk, pop)

	// Replace a few cards in both lakes: in the disk lake some of these
	// documents are already segment-resident, so the replace exercises the
	// demote path while the plain lake just overwrites a map entry.
	for _, i := range []int{0, 3, 7} {
		for _, pair := range []struct {
			l   *Lake
			ids map[int]string
		}{{plain, pIDs}, {disk, dIDs}} {
			c, err := pair.l.Card(pair.ids[i])
			if err != nil {
				t.Fatal(err)
			}
			c.Description = c.Description + " revised statute edition"
			if err := pair.l.PutCard(pair.ids[i], c); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Same seed, same ingest order: lake IDs are deterministic, so the two
	// lakes' answers must agree down to IDs, order, and score bits.
	compare := func(label string, got, want map[string][]search.Hit) {
		t.Helper()
		for q, wh := range want {
			sameHits(t, label+" "+q, got[q], wh)
		}
	}

	want := collectKeyword(t, plain, 5)
	nonEmpty := 0
	for _, hits := range want {
		if len(hits) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Fatal("no query matched; fixture is vacuous")
	}
	compare("live", collectKeyword(t, disk, 5), want)
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "postings", "kw-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no postings segments published (err=%v); merge never ran", err)
	}

	damage := []struct {
		name string
		do   func(t *testing.T)
	}{
		{"pristine adopt", func(t *testing.T) {}},
		{"flipped byte", func(t *testing.T) {
			b, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)/2] ^= 0x20
			if err := os.WriteFile(segs[0], b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated", func(t *testing.T) {
			b, err := os.ReadFile(segs[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(segs[0], b[:len(b)/3], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"deleted", func(t *testing.T) {
			if err := os.RemoveAll(filepath.Join(dir, "postings")); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damage {
		d.do(t)
		re, err := Open(cfg)
		if err != nil {
			t.Fatalf("%s: reopen: %v", d.name, err)
		}
		compare(d.name, collectKeyword(t, re, 5), want)

		// A card update after reopen must land in the keyword index even
		// when the document arrived via segment adoption.
		probe := dIDs[1]
		c, err := re.Card(probe)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		c.Description = c.Description + " zanzibar"
		if err := re.PutCard(probe, c); err != nil {
			t.Fatalf("%s: PutCard after reopen: %v", d.name, err)
		}
		hits, err := re.SearchKeywordContext(context.Background(), "zanzibar", 3)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if len(hits) != 1 || hits[0].ID != probe {
			t.Fatalf("%s: post-reopen card update not searchable: %+v", d.name, hits)
		}
		// Undo so the next damage round compares against the same corpus.
		c.Description = strings.TrimSuffix(c.Description, " zanzibar")
		if err := re.PutCard(probe, c); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		compare(d.name+" after undo", collectKeyword(t, re, 5), want)
		if err := re.Close(); err != nil {
			t.Fatalf("%s: close: %v", d.name, err)
		}
	}
}

// TestStalePostingsSegmentNotAdopted edits a card while the lake is closed —
// writing through a second lake handle on the same store would be the
// realistic path, but simplest is to publish segments, reopen, edit, close,
// and corrupt-check: after the edit the published segment no longer matches
// the card CRC for that doc, so the NEXT reopen must reject that shard's
// segment and serve the fresh text.
func TestStalePostingsSegmentNotAdopted(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, Seed: 1, DiskResidentPostings: true, KeywordMergeThreshold: 2}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pop := population(t, 55)
	ids := fill(t, l, pop)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and edit one card. Close WITHOUT relying on Flush rewriting
	// every shard: delete the postings dir snapshot taken before the edit
	// is deliberately NOT done — the point is the on-disk segment from the
	// first run may now be stale for this doc.
	l, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := ids[2]
	c, err := l.Card(probe)
	if err != nil {
		t.Fatal(err)
	}
	c.Description = c.Description + " quetzal"
	if err := l.PutCard(probe, c); err != nil {
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
	hits, err := l.SearchKeywordContext(context.Background(), "quetzal", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].ID != probe {
		t.Fatalf("edited card not served after reopen: %+v", hits)
	}
}

// TestKeywordTierGaugesSumOpenLakes: keyword_map_docs and
// keyword_segment_docs count every open lake in the process, so two open
// lakes read as their sum, and once one closes they read the other's
// numbers.
func TestKeywordTierGaugesSumOpenLakes(t *testing.T) {
	gauges := func() (mapDocs, segDocs int) {
		return int(obs.Default().Gauge("keyword_map_docs").Value()),
			int(obs.Default().Gauge("keyword_segment_docs").Value())
	}
	map0, seg0 := gauges()
	pop := population(t, 71)
	merged, err := Open(Config{Seed: 1, KeywordMergeThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	buffered, err := Open(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer buffered.Close()
	fill(t, merged, pop)
	fill(t, buffered, pop)
	m, b := merged.TierMemStats(), buffered.TierMemStats()
	if m.KeywordSegmentDocs == 0 || b.KeywordMapDocs == 0 {
		t.Fatalf("vacuous fixture: %d segment docs in one lake, %d map docs in the other",
			m.KeywordSegmentDocs, b.KeywordMapDocs)
	}
	want := func(label string, mapDocs, segDocs int) {
		t.Helper()
		if gm, gs := gauges(); gm-map0 != mapDocs || gs-seg0 != segDocs {
			t.Fatalf("%s: gauges moved by %d map / %d segment docs, want %d / %d",
				label, gm-map0, gs-seg0, mapDocs, segDocs)
		}
	}
	want("both open", m.KeywordMapDocs+b.KeywordMapDocs, m.KeywordSegmentDocs+b.KeywordSegmentDocs)
	if err := merged.Close(); err != nil {
		t.Fatal(err)
	}
	want("one closed", b.KeywordMapDocs, b.KeywordSegmentDocs)
	if err := buffered.Close(); err != nil {
		t.Fatal(err)
	}
	want("both closed", 0, 0)
}
