package lake

// Lake-level contract for keyword postings segments (DESIGN.md §13): a
// file-backed lake whose shards merge into segments answers bitwise like
// the in-memory map scorer, before and after a reopen rebuilds the segments
// from the cards.

import (
	"context"
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

// TestDiskPostingsLakeMatchesMapScorer ingests one population into a plain
// in-memory lake and a file-backed lake (merging after every document so
// segments form at test sizes, plus mid-stream card replacements to force
// demotions) and requires bitwise-identical keyword answers — then
// again after a reopen, whose first keyword request rebuilds the segments
// from the cards, and after a card edited since the reopen survives the
// next one.
func TestDiskPostingsLakeMatchesMapScorer(t *testing.T) {
	pop := population(t, 91)
	plain, err := Open(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	cfg := Config{Dir: t.TempDir(), Seed: 1, KeywordMergeThreshold: 1}
	file, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	pIDs := fill(t, plain, pop)
	fIDs := fill(t, file, pop)
	if file.keyword.SegmentCount() == 0 {
		t.Fatal("no keyword segment formed; merge never ran")
	}

	// Replace a few cards in both lakes: in the file lake every document is
	// segment-resident, so the replace exercises the demote path while the
	// plain lake just overwrites a map entry.
	for _, i := range []int{0, 3, 7} {
		for _, pair := range []struct {
			l   *Lake
			ids map[int]string
		}{{plain, pIDs}, {file, fIDs}} {
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
	compare("live", collectKeyword(t, file, 5), want)
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	compare("reopened", collectKeyword(t, re, 5), want)
	if re.keyword.SegmentCount() == 0 {
		t.Fatal("the reopened lake's first keyword request built no segment")
	}

	// A card update after reopen must land in the keyword index even
	// when the document arrived via the reopen's bulk build, and must
	// still be what the next reopen serves.
	probe := fIDs[1]
	c, err := re.Card(probe)
	if err != nil {
		t.Fatal(err)
	}
	c.Description = c.Description + " zanzibar"
	if err := re.PutCard(probe, c); err != nil {
		t.Fatalf("PutCard after reopen: %v", err)
	}
	for round := 0; round < 2; round++ {
		hits, err := re.SearchKeywordContext(context.Background(), "zanzibar", 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(hits) != 1 || hits[0].ID != probe {
			t.Fatalf("round %d: post-reopen card update not searchable: %+v", round, hits)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		if re, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
	}
	defer re.Close()
	// Undo: the corpus is the plain lake's again.
	c.Description = strings.TrimSuffix(c.Description, " zanzibar")
	if err := re.PutCard(probe, c); err != nil {
		t.Fatal(err)
	}
	compare("after undo", collectKeyword(t, re, 5), want)
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
