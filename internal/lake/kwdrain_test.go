package lake

// The first keyword request after a reopen drains the lazy card backlog into
// the keyword index. These tests pin what that drain must leave behind —
// every rehydrated card in a compact segment, the map tier empty, answers
// byte-equal to a lake that was never closed — and that nobody can observe
// it (or the task roster's twin) half done.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"modellake/internal/lakegen"
	"modellake/internal/model"
	"modellake/internal/obs"
	"modellake/internal/registry"
	"modellake/internal/search"
)

// widePopulation generates n small models in families of five, a fifth of
// them without cards — the shape of the scale experiments, sized for tests.
func widePopulation(t *testing.T, seed uint64, n int) *lakegen.Population {
	t.Helper()
	pop, err := lakegen.Generate(lakegen.Spec{
		Seed: seed, NumBases: n / 5, ChildrenPerBase: 4, MaxDepth: 3,
		Dim: 8, Classes: 3, Hidden: 8, TrainN: 32, Noise: 0.4,
		BaseEpochs: 1, FTEpochs: 1, CardDropProb: 0.2, AnonymousNames: true,
		TransformMix: map[string]float64{
			model.TransformFinetune: 0.55, model.TransformLoRA: 0.25, model.TransformStitch: 0.2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func ingestAll(t *testing.T, l *Lake, pop *lakegen.Population) []string {
	t.Helper()
	items := make([]IngestItem, len(pop.Members))
	for i, m := range pop.Members {
		items[i] = IngestItem{Model: m.Model, Card: m.Card,
			Opts: registry.RegisterOptions{Name: m.Truth.Name, Version: "1"}}
	}
	recs, errs := l.IngestAll(items, 0)
	ids := make([]string, len(recs))
	for i, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = recs[i].ID
	}
	return ids
}

// wideQuery matches every carded model: the generator ends each card with
// the same disclaimer sentence.
const wideQuery = "synthetic benchmark model classification"

// TestConcurrentFirstSearchAfterReopen reopens a 2000-model lake and lets
// eight goroutines issue its first keyword search, then its first task
// search, at once. Every one of them must get the pre-close answer; a ready
// flag flipped before the drain finished hands the late arrivals a partial
// index or roster.
func TestConcurrentFirstSearchAfterReopen(t *testing.T) {
	const n, clients = 2000, 8
	ctx := context.Background()
	pop := widePopulation(t, 41, n)
	cfg := Config{Dir: t.TempDir(), Seed: 1}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, l, pop)
	wantKw, err := l.SearchKeywordContext(ctx, wideQuery, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantKw) < n/2 {
		t.Fatalf("wide query matched %d of %d models; fixture is vacuous", len(wantKw), n)
	}
	examples := search.DatasetAsTask(pop.Datasets[pop.Members[0].Truth.DatasetID], 8)
	wantTask, err := l.SearchTask(examples, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantTask) != n {
		t.Fatalf("task roster holds %d of %d models", len(wantTask), n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	race := func(query func() ([]search.Hit, error)) [][]search.Hit {
		got := make([][]search.Hit, clients)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				hits, err := query()
				if err != nil {
					t.Error(err)
				}
				got[c] = hits
			}(c)
		}
		close(start)
		wg.Wait()
		return got
	}
	for c, got := range race(func() ([]search.Hit, error) { return re.SearchKeywordContext(ctx, wideQuery, n) }) {
		sameHits(t, fmt.Sprintf("keyword client %d", c), got, wantKw)
	}
	for c, got := range race(func() ([]search.Hit, error) { return re.SearchTask(examples, n) }) {
		sameHits(t, fmt.Sprintf("task client %d", c), got, wantTask)
	}
}

// TestReopenDrainBuildsSegments is the lake half of the bulk-load contract:
// for each keyword configuration, ingest → Close → reopen → first keyword
// search leaves every carded model in a segment and none in the map tier
// (all in the map tier when merging is disabled, as before), answers
// byte-equal to a lake that was never closed, in fewer postings bytes than
// the map tier needs — and a PutCard afterwards leaves the edited shard
// compacted.
func TestReopenDrainBuildsSegments(t *testing.T) {
	ctx := context.Background()
	pop := widePopulation(t, 43, 250)
	live, err := Open(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	ids := ingestAll(t, live, pop)
	want := collectKeyword(t, live, 10)
	carded, _ := live.keyword.TierDocs() // 250 docs over 16 shards: all still in the map tier

	reopen := func(cfg Config) *Lake {
		t.Helper()
		cfg.Dir, cfg.Seed = t.TempDir(), 1
		l, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ingestAll(t, l, pop)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if l, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l
	}
	maps := reopen(Config{KeywordMergeThreshold: -1})
	for q, hits := range collectKeyword(t, maps, 10) {
		sameHits(t, "map-only "+q, hits, want[q])
	}
	mapStats := maps.TierMemStats()
	if mapStats.KeywordMapDocs != carded || mapStats.KeywordSegmentDocs != 0 {
		t.Fatalf("merge-disabled lake: %+v, want all %d docs in the map tier", mapStats, carded)
	}

	// The never-closed lake takes the same edit the reopened ones get below.
	edit := func(l *Lake) {
		t.Helper()
		c, err := l.Card(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		c.Description += " zanzibar statute"
		if err := l.PutCard(ids[0], c); err != nil {
			t.Fatal(err)
		}
	}
	edit(live)
	wantEdited := collectKeyword(t, live, 10)
	if err := live.keyword.Flush(); err != nil {
		t.Fatal(err)
	}
	shardsWithDocs := live.keyword.SegmentCount()

	name, re := "default", reopen(Config{})
	merges := obs.Default().Counter("keyword_seg_merges_total")
	before := merges.Value()
	for q, hits := range collectKeyword(t, re, 10) {
		sameHits(t, name+" "+q, hits, want[q])
	}
	// The drain builds each shard's segment once, however many cards it
	// holds.
	if got := int(merges.Value() - before); got != shardsWithDocs {
		t.Fatalf("%s: the drain ran %d segment builds, want %d", name, got, shardsWithDocs)
	}
	st := re.TierMemStats()
	if st.KeywordMapDocs != 0 || st.KeywordSegmentDocs != carded || re.keyword.SegmentCount() != shardsWithDocs {
		t.Fatalf("%s: after the drain %+v in %d segments; want 0 map docs, %d segment docs, %d segments",
			name, st, re.keyword.SegmentCount(), carded, shardsWithDocs)
	}
	if st.PostingsBytes >= mapStats.PostingsBytes {
		t.Fatalf("%s: postings take %d bytes in segments, %d in maps", name, st.PostingsBytes, mapStats.PostingsBytes)
	}
	edit(re)
	for q, hits := range collectKeyword(t, re, 10) {
		sameHits(t, name+" edited "+q, hits, wantEdited[q])
	}
	if mapDocs, _ := re.keyword.TierDocs(); mapDocs != 0 || re.keyword.SegmentCount() != shardsWithDocs {
		t.Fatalf("%s: PutCard left %d docs in the map tier, %d segments (want 0, %d)",
			name, mapDocs, re.keyword.SegmentCount(), shardsWithDocs)
	}
	hits, err := re.SearchKeywordContext(ctx, "zanzibar", 3)
	if err != nil || len(hits) != 1 || hits[0].ID != ids[0] {
		t.Fatalf("%s: edited card not searchable: %v %v", name, hits, err)
	}
}

// TestPutCardRacesReopenDrain edits cards while the first keyword search of
// a reopened lake is draining the backlog. Whichever side reaches a document
// first, the edit must win, and no document may end up in both tiers.
func TestPutCardRacesReopenDrain(t *testing.T) {
	ctx := context.Background()
	pop := widePopulation(t, 47, 250)
	cfg := Config{Dir: t.TempDir(), Seed: 1}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := ingestAll(t, l, pop)
	docs := l.keyword.Len()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	edited := ids[:40]
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, id := range edited {
			c, err := l.Card(id)
			if err != nil {
				t.Error(err)
				return
			}
			c.Description += " zanzibar"
			if err := l.PutCard(id, c); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := l.SearchKeywordContext(ctx, wideQuery, 10); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	hits, err := l.SearchKeywordContext(ctx, "zanzibar", len(ids))
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, h := range hits {
		found[h.ID] = true
	}
	for _, id := range edited {
		if !found[id] {
			t.Fatalf("edit of %s lost to the drain", id)
		}
	}
	if len(hits) != len(edited) || l.keyword.Len() != docs {
		t.Fatalf("%d hits for %d edits, %d docs indexed of %d: a document sits in both tiers",
			len(hits), len(edited), l.keyword.Len(), docs)
	}
}
