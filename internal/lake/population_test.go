package lake

// Every population change lands through commit. These tests pin what each
// write path leaves in the lake's derived state, that a lazily drained
// backlog is never observed half loaded, and that neither cache keeps a
// result computed across a write.

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"modellake/internal/benchmark"
	"modellake/internal/card"
	"modellake/internal/lakegen"
	"modellake/internal/raceflag"
	"modellake/internal/registry"
	"modellake/internal/search"
	"modellake/internal/version"
)

// landing is what a write of the subject model must leave in the lake the
// checks read.
type landing struct {
	closedLive bool // the lake holds the subject's live closed-weights copy
	indexed    bool // the subject's vectors are in this lake's content indexes
	primed     bool // the graph slot and query cache were filled before the write
}

// primeDerived fills the graph slot with a sentinel and leaves one query-cache
// entry, so a check can tell which of them a write cleared. It returns the
// sentinel and the population generation before the write.
func primeDerived(t *testing.T, l *Lake) (*version.Graph, uint64) {
	t.Helper()
	g := &version.Graph{}
	l.mu.Lock()
	l.graph = g
	gen := l.gen
	l.mu.Unlock()
	v := qcVec(1, 4)
	l.qcache.invalidate()
	_, qgen, _ := l.qcache.get("behavior", v, 1)
	l.qcache.put(qgen, "behavior", v, 1, qcHits("primed"))
	if l.qcache.len() != 1 {
		t.Fatal("could not prime the query cache")
	}
	return g, gen
}

// cachedModels lists the ids in l's model cache.
func cachedModels(l *Lake) []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var ids []string
	for id := range l.modelCache {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func hitCount(hits []search.Hit, id string) int {
	n := 0
	for _, h := range hits {
		if h.ID == id {
			n++
		}
	}
	return n
}

// checkLanded holds l to what a write of subject id must have done. The
// state checks come first: the searches after them load models and fill
// the query cache.
func checkLanded(t *testing.T, label string, l *Lake, id, word string, want landing, gen0 uint64, examples []search.TaskExample) {
	t.Helper()
	wantCached := []string(nil)
	if want.closedLive {
		wantCached = []string{id}
	}
	if got := cachedModels(l); fmt.Sprint(got) != fmt.Sprint(wantCached) {
		t.Fatalf("%s: model cache holds %v, want %v", label, got, wantCached)
	}
	l.mu.RLock()
	g, gen := l.graph, l.gen
	l.mu.RUnlock()
	if g != nil {
		t.Fatalf("%s: the version-graph slot survived a registering write", label)
	}
	if want.primed {
		if gen <= gen0 {
			t.Fatalf("%s: population generation %d did not advance from %d", label, gen, gen0)
		}
		// Only vectors change a content-search answer.
		if n := l.qcache.len(); (n == 0) != want.indexed {
			t.Fatalf("%s: %d query-cache entries after the write; emptied should be %v", label, n, want.indexed)
		}
	}

	ctx := context.Background()
	kw, err := l.SearchKeywordContext(ctx, word, 5)
	if err != nil || len(kw) != 1 || kw[0].ID != id {
		t.Fatalf("%s: keyword search for the card found %v (%v)", label, kw, err)
	}
	v, ok, err := l.behaviorCS.Vector(id)
	if err != nil || ok != want.indexed {
		t.Fatalf("%s: behaviour row present = %v (%v), want %v", label, ok, err, want.indexed)
	}
	if want.indexed {
		raw, err := l.SearchByVectorSpace(ctx, "behavior", v, l.Count())
		if err != nil || hitCount(raw, id) != 1 {
			t.Fatalf("%s: related search over the whole lake found the subject %d times (%v)", label, hitCount(raw, id), err)
		}
	}
	task, err := l.SearchTask(examples, l.Count())
	if err != nil {
		t.Fatal(err)
	}
	wantTask := 0
	if want.indexed {
		wantTask = 1
	}
	if n := hitCount(task, id); n != wantTask {
		t.Fatalf("%s: task search ranks the subject %d times, want %d", label, n, wantTask)
	}
	if rl, bl := l.taskSearch.Len(), l.behaviorCS.Len(); rl != bl {
		t.Fatalf("%s: task roster holds %d models for %d behaviour rows", label, rl, bl)
	}
}

// TestEveryWritePathLandsOnce runs each write path — Ingest, IngestAll across
// a chunk boundary, ApplyWAL on a follower, reopen, Ingest after Promote —
// with an open- and a closed-weights subject, then a card edit and a follower
// page of score keys, and checks each lands in every derived structure
// exactly once and clears only what it must.
func TestEveryWritePathLandsOnce(t *testing.T) {
	pop := widePopulation(t, 53, ingestChunkModels+5)
	background := pop.Members[:ingestChunkModels]
	src := pop.Members[len(pop.Members)-1]
	examples := search.DatasetAsTask(pop.Datasets[src.Truth.DatasetID], 8)
	items := func(ms []*lakegen.Member) []IngestItem {
		out := make([]IngestItem, len(ms))
		for i, m := range ms {
			out[i] = IngestItem{Model: m.Model, Card: m.Card,
				Opts: registry.RegisterOptions{Name: m.Truth.Name, Version: "1"}}
		}
		return out
	}
	ingestBackground := func(l *Lake) {
		t.Helper()
		if _, errs := l.IngestAll(items(background), 0); errs[len(errs)-1] != nil {
			t.Fatal(errs[len(errs)-1])
		}
	}
	// subject is a fresh copy of src, so no lake shares its live model.
	subject := func(closed bool) IngestItem {
		m := *src.Model
		m.ID = ""
		c := &card.Card{Name: "subject", Description: "zanzibar"}
		return IngestItem{Model: &m, Card: c,
			Opts: registry.RegisterOptions{Name: "subject", Version: "1", WithholdWeights: closed}}
	}
	ingest := func(l *Lake, it IngestItem) string {
		t.Helper()
		rec, err := l.Ingest(it.Model, it.Card, it.Opts)
		if err != nil {
			t.Fatal(err)
		}
		return rec.ID
	}
	replicated := func(t *testing.T) (leader, follower *Lake) {
		dir := t.TempDir()
		leader, err := Open(Config{Dir: filepath.Join(dir, "leader"), Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		follower, err = Open(Config{Dir: filepath.Join(dir, "follower"), Seed: 1,
			BlobDir: filepath.Join(dir, "leader", "blobs"), Follower: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { follower.Close() })
		ingestBackground(leader)
		shipAll(t, leader, follower)
		return leader, follower
	}

	for _, closed := range []bool{false, true} {
		kind := map[bool]string{false: "open", true: "closed"}[closed]
		t.Run("ingest/"+kind, func(t *testing.T) {
			l, err := Open(Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			ingestBackground(l)
			_, gen0 := primeDerived(t, l)
			id := ingest(l, subject(closed))
			checkLanded(t, "ingest", l, id, "zanzibar", landing{closedLive: closed, indexed: true, primed: true}, gen0, examples)

			// A card edit touches the keyword index and nothing else.
			cached := cachedModels(l)
			sentinel, gen0 := primeDerived(t, l)
			if err := l.PutCard(id, &card.Card{Name: "subject", Description: "quixotic"}); err != nil {
				t.Fatal(err)
			}
			l.mu.RLock()
			g, gen := l.graph, l.gen
			l.mu.RUnlock()
			if g != sentinel || gen != gen0 || l.qcache.len() != 1 || fmt.Sprint(cachedModels(l)) != fmt.Sprint(cached) {
				t.Fatalf("PutCard moved derived state: graph kept %v, gen %d → %d, %d cache entries",
					g == sentinel, gen0, gen, l.qcache.len())
			}
			for word, want := range map[string]int{"quixotic": 1, "zanzibar": 0} {
				if hits := l.SearchKeyword(word, 5); hitCount(hits, id) != want || len(hits) != want {
					t.Fatalf("after PutCard, %q finds %v", word, hits)
				}
			}
		})
		t.Run("ingestall/"+kind, func(t *testing.T) {
			l, err := Open(Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			_, gen0 := primeDerived(t, l)
			batch := append(items(background), subject(closed))
			if len(batch) <= ingestChunkModels {
				t.Fatalf("batch of %d does not cross a chunk boundary", len(batch))
			}
			recs, errs := l.IngestAll(batch, 0)
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			checkLanded(t, "ingestall", l, recs[len(recs)-1].ID, "zanzibar", landing{closedLive: closed, indexed: true, primed: true}, gen0, examples)
		})
		t.Run("follower/"+kind, func(t *testing.T) {
			leader, follower := replicated(t)
			defer leader.Close()
			_, gen0 := primeDerived(t, follower)
			id := ingest(leader, subject(closed))
			shipAll(t, leader, follower)
			// A closed-weights model's live copy and rows stay on its leader.
			checkLanded(t, "follower", follower, id, "zanzibar", landing{indexed: !closed, primed: true}, gen0, examples)

			// A page of score keys changes no population.
			leader.RegisterBenchmark(&benchmark.Benchmark{ID: "b", DS: pop.Datasets[src.Truth.DatasetID]})
			sentinel, gen0 := primeDerived(t, follower)
			cached := cachedModels(follower)
			off := follower.WALOffset()
			for _, m := range background[:3] {
				scored, err := leader.Resolve(m.Truth.Name, "1")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := leader.Score(scored, "b"); err != nil {
					t.Fatal(err)
				}
			}
			shipAll(t, leader, follower)
			if follower.WALOffset() == off {
				t.Fatal("no score page shipped")
			}
			follower.mu.RLock()
			g, gen := follower.graph, follower.gen
			follower.mu.RUnlock()
			if g != sentinel || gen != gen0 || follower.qcache.len() != 1 || fmt.Sprint(cachedModels(follower)) != fmt.Sprint(cached) {
				t.Fatalf("a score page moved derived state: graph kept %v, gen %d → %d, %d cache entries",
					g == sentinel, gen0, gen, follower.qcache.len())
			}
		})
		t.Run("reopen/"+kind, func(t *testing.T) {
			cfg := Config{Dir: t.TempDir(), Seed: 1}
			l, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ingestBackground(l)
			id := ingest(l, subject(closed))
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if l, err = Open(cfg); err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			// Closed-weights behaviour does not survive a restart.
			checkLanded(t, "reopen", l, id, "zanzibar", landing{indexed: !closed}, 0, examples)
		})
		t.Run("promoted/"+kind, func(t *testing.T) {
			leader, follower := replicated(t)
			if err := leader.Close(); err != nil {
				t.Fatal(err)
			}
			if err := follower.Promote(true); err != nil {
				t.Fatal(err)
			}
			_, gen0 := primeDerived(t, follower)
			id := ingest(follower, subject(closed))
			checkLanded(t, "promoted", follower, id, "zanzibar", landing{closedLive: closed, indexed: true, primed: true}, gen0, examples)
		})
	}
}

// TestBacklogDrain: ids pushed while a drain is loading are loaded by that
// same drain, a drainer arriving mid-drain returns only once the queue is
// empty, and a drain that returns has loaded every id pushed before it began.
func TestBacklogDrain(t *testing.T) {
	var b backlog
	var mu sync.Mutex
	loaded := map[string]int{}
	load := func(ids []string) {
		mu.Lock()
		for _, id := range ids {
			loaded[id]++
		}
		mu.Unlock()
	}
	has := func(id string) bool {
		mu.Lock()
		defer mu.Unlock()
		return loaded[id] > 0
	}

	b.push("a", "b")
	calls := 0
	b.drain(func(ids []string) {
		if calls++; calls == 1 {
			b.push("c")
		}
		load(ids)
	})
	if calls != 2 || !has("c") {
		t.Fatalf("an id pushed mid-drain was left for the next drain (%d loads)", calls)
	}
	b.drain(func([]string) { t.Fatal("a drained backlog loaded again") })

	b.push("d")
	entered, release, first := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(first)
		var once sync.Once
		b.drain(func(ids []string) {
			once.Do(func() { close(entered); <-release })
			load(ids)
		})
	}()
	<-entered
	second := make(chan struct{})
	go func() { defer close(second); b.drain(load) }()
	b.push("e")
	select {
	case <-second:
		t.Fatal("a second drainer returned while the first was still loading")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	<-first
	<-second
	if !has("d") || !has("e") {
		t.Fatalf("drains returned with %v loaded", loaded)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := fmt.Sprintf("%d/%d", g, i)
				b.push(id)
				b.drain(load)
				if !has(id) {
					t.Errorf("drain returned before loading %s, pushed before it began", id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for id, n := range loaded {
		if n != 1 {
			t.Fatalf("%s loaded %d times", id, n)
		}
	}
}

// TestQueryCacheRefusesResultAcrossInvalidate: a result whose miss came
// before an invalidation is not admitted after it.
func TestQueryCacheRefusesResultAcrossInvalidate(t *testing.T) {
	c := newQueryCache(8)
	v := qcVec(1, 4)
	_, gen, ok := c.get("behavior", v, 5)
	if ok {
		t.Fatal("empty cache reported a hit")
	}
	c.invalidate()
	c.put(gen, "behavior", v, 5, qcHits("stale"))
	if c.len() != 0 {
		t.Fatal("a result computed before an invalidation was cached after it")
	}
	_, gen, _ = c.get("behavior", v, 5)
	c.put(gen, "behavior", v, 5, qcHits("fresh"))
	if got, _, ok := c.get("behavior", v, 5); !ok || got[0].ID != "fresh" {
		t.Fatalf("a result computed after the invalidation was not cached: %v", got)
	}
}

// raceTrials scales a stress test down under the race detector, which slows
// every search tenfold.
func raceTrials(n int) int {
	if raceflag.Enabled || testing.Short() {
		return n / 10
	}
	return n
}

// TestRelatedCacheNotStaleAfterIngest: two readers walk distinct models'
// related queries at k = 250 (cached) while a writer ingests twins of a
// member. Once an ingest has returned, every cached answer must be the
// answer of a direct scan: a reader's result computed before the ingest and
// put after its invalidation would lack the twin.
func TestRelatedCacheNotStaleAfterIngest(t *testing.T) {
	ctx := context.Background()
	pop := population(t, 61)
	l, err := Open(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ids := idList(fill(t, l, pop))
	const k = maxCachedHits - 7 // k+1 = 250 raw hits: cached
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i += 2 {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := l.SearchByModelContext(ctx, ids[i%len(ids)], "behavior", k); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	defer func() { close(stop); wg.Wait() }()
	twin := pop.Members[0].Model
	for trial := 0; trial < raceTrials(500); trial++ {
		m := *twin
		m.ID = ""
		if _, err := l.Ingest(&m, nil, registry.RegisterOptions{Name: fmt.Sprintf("twin-%d", trial)}); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			got, err := l.SearchByModelContext(ctx, id, "behavior", k)
			if err != nil {
				t.Fatal(err)
			}
			v, _, err := l.behaviorCS.Vector(id)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := l.behaviorCS.SearchByVectorContext(ctx, v, k+1)
			if err != nil {
				t.Fatal(err)
			}
			sameHits(t, fmt.Sprintf("trial %d, %s", trial, id), got, search.ExcludeSelf(raw, id, k))
		}
	}
}

// TestVersionGraphBuiltAcrossIngestNotCached races a version-graph build
// against an ingest at staggered offsets. The graph the next call returns
// must hold the ingested model: a build that began before the ingest landed
// may be returned to its own caller, never cached past the ingest.
func TestVersionGraphBuiltAcrossIngestNotCached(t *testing.T) {
	pop := population(t, 62)
	l, err := Open(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fill(t, l, pop)
	twin := pop.Members[0].Model
	n := 0
	ingest := func() string {
		t.Helper()
		m := *twin
		m.ID = ""
		n++
		rec, err := l.Ingest(&m, nil, registry.RegisterOptions{Name: fmt.Sprintf("twin-%d", n)})
		if err != nil {
			t.Fatal(err)
		}
		return rec.ID
	}
	for trial := 0; trial < raceTrials(150); trial++ {
		ingest() // clears the cached graph
		built := make(chan error)
		go func() {
			_, err := l.VersionGraph()
			built <- err
		}()
		time.Sleep(time.Duration(trial%10) * 100 * time.Microsecond)
		id := ingest()
		if err := <-built; err != nil {
			t.Fatal(err)
		}
		g, err := l.VersionGraph()
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, node := range g.Nodes {
			found = found || node == id
		}
		if !found {
			t.Fatalf("trial %d: the version graph after the ingest of %s leaves it out", trial, id)
		}
	}
}
