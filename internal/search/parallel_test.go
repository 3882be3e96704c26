package search

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"modellake/internal/index"
	"modellake/internal/model"
	"modellake/internal/tensor"
	"modellake/internal/xrand"
)

// gateEmbedder blocks inside Embed until released and counts invocations —
// the instrument for proving the duplicate-add race fix embeds only once.
type gateEmbedder struct {
	dim     int
	calls   atomic.Int32
	release chan struct{}
}

func (e *gateEmbedder) Name() string { return "gate" }
func (e *gateEmbedder) Dim() int     { return e.dim }
func (e *gateEmbedder) Embed(h *model.Handle) (tensor.Vector, error) {
	e.calls.Add(1)
	<-e.release
	v := make(tensor.Vector, e.dim)
	v[0] = 1
	return v, nil
}

// TestConcurrentAddSameIDEmbedsOnce is the regression test for the
// duplicate-add race: two concurrent adds of the same ID used to both run
// the expensive embed, with one erroring only afterwards. The ID is now
// reserved before embedding, so the loser must return immediately — while
// the winner is still stuck inside Embed — and the embedder must run
// exactly once.
func TestConcurrentAddSameIDEmbedsOnce(t *testing.T) {
	pop := buildPopulation(t, 34)
	emb := &gateEmbedder{dim: 4, release: make(chan struct{})}
	cs := NewContentSearcher(emb, index.NewFlat(index.Cosine))
	h := model.NewHandle(pop.Members[0].Model)

	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { results <- cs.Add(h) }()
	}
	// One Add must fail while the other is still blocked embedding.
	first := <-results
	if first == nil {
		t.Fatal("an Add completed before the embedder was released")
	}
	if !strings.Contains(first.Error(), "already indexed") {
		t.Fatalf("loser error = %v, want already-indexed", first)
	}
	close(emb.release)
	if err := <-results; err != nil {
		t.Fatalf("winner failed: %v", err)
	}
	if n := emb.calls.Load(); n != 1 {
		t.Fatalf("embedder ran %d times, want 1", n)
	}
	if cs.Len() != 1 {
		t.Fatalf("index has %d entries, want 1", cs.Len())
	}
}

// failingEmbedder fails for a chosen ID, to check reservation rollback.
type failingEmbedder struct {
	dim    int
	failID string
}

func (e *failingEmbedder) Name() string { return "failing" }
func (e *failingEmbedder) Dim() int     { return e.dim }
func (e *failingEmbedder) Embed(h *model.Handle) (tensor.Vector, error) {
	if h.ID() == e.failID {
		return nil, errors.New("boom")
	}
	v := make(tensor.Vector, e.dim)
	v[0] = 1
	return v, nil
}

func TestAddReleasesReservationOnEmbedFailure(t *testing.T) {
	pop := buildPopulation(t, 35)
	h := model.NewHandle(pop.Members[0].Model)
	cs := NewContentSearcher(&failingEmbedder{dim: 4, failID: h.ID()}, index.NewFlat(index.Cosine))
	if err := cs.Add(h); err == nil {
		t.Fatal("embed failure not surfaced")
	}
	// The failed ID must not stay reserved: a later add of the same model
	// (e.g. after the transient cause clears) has to be possible.
	cs.embedder = &failingEmbedder{dim: 4, failID: "other"}
	if err := cs.Add(h); err != nil {
		t.Fatalf("retry after embed failure rejected: %v", err)
	}
}

// TestShardedKeywordIndexMatchesSingleLock: sharding changes the locking,
// never the ranking — hits and scores must be bitwise identical to the
// single-mutex KeywordIndex on the same corpus.
func TestShardedKeywordIndexMatchesSingleLock(t *testing.T) {
	rng := xrand.New(17)
	words := []string{"legal", "medical", "court", "patient", "model", "data",
		"finance", "bond", "statute", "therapy", "contract", "verdict"}
	doc := func() string {
		n := 5 + rng.Intn(40)
		parts := make([]string, n)
		for i := range parts {
			parts[i] = words[rng.Intn(len(words))]
		}
		return strings.Join(parts, " ")
	}
	single := NewKeywordIndex()
	sharded := NewShardedKeywordIndex(8)
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("m%03d", i)
		text := doc()
		single.Add(id, text)
		sharded.Add(id, text)
	}
	// Replace and remove some documents so those paths are compared too.
	for i := 0; i < 30; i++ {
		id := fmt.Sprintf("m%03d", rng.Intn(200))
		text := doc()
		single.Add(id, text)
		sharded.Add(id, text)
	}
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("m%03d", rng.Intn(200))
		single.Remove(id)
		sharded.Remove(id)
	}
	if single.Len() != sharded.Len() {
		t.Fatalf("Len: single %d, sharded %d", single.Len(), sharded.Len())
	}
	for trial := 0; trial < 50; trial++ {
		q := doc()[:20]
		want := single.Search(q, 10)
		got, err := sharded.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(got) {
			t.Fatalf("query %q: %d hits vs %d", q, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("query %q hit %d: sharded %+v != single %+v", q, i, got[i], want[i])
			}
		}
	}
}

// TestShardedKeywordIndexConcurrent hammers adds/searches from many
// goroutines; -race is the assertion.
func TestShardedKeywordIndexConcurrent(t *testing.T) {
	ki := NewShardedKeywordIndex(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ki.Add(fmt.Sprintf("w%d-m%d", w, i), "legal court model data")
				if i%7 == 0 {
					ki.Search("legal model", 5)
					ki.Remove(fmt.Sprintf("w%d-m%d", w, i/2))
				}
			}
		}(w)
	}
	wg.Wait()
	if ki.Len() == 0 {
		t.Fatal("concurrent adds lost everything")
	}
}
