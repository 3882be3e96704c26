package search

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"modellake/internal/raceflag"
)

// kwVocab is a small vocabulary with deliberately skewed frequencies:
// early words are near-universal (stressing the common-term pruning case),
// late words are rare (stressing selective queries).
var kwVocab = []string{
	"model", "the", "trained", "data", "learning", "neural",
	"bert", "vision", "speech", "legal", "medical", "finance",
	"transformer", "resnet", "wav2vec", "sentiment", "summarization",
	"classifier", "qa", "translation", "ner", "detection",
	"quantized", "distilled", "lora", "adapter", "multilingual",
	"robustness", "fairness", "watermark", "provenance", "benchmark",
}

// kwRandomDoc draws a zipf-flavoured document so term frequencies vary and
// block max-tf values are meaningful.
func kwRandomDoc(rng *rand.Rand) string {
	n := 3 + rng.Intn(30)
	words := make([]string, n)
	for i := range words {
		// Squaring skews toward the head of the vocabulary.
		f := rng.Float64()
		words[i] = kwVocab[int(f*f*float64(len(kwVocab)))]
	}
	return strings.Join(words, " ")
}

func kwRandomQuery(rng *rand.Rand) string {
	n := 1 + rng.Intn(4)
	words := make([]string, n)
	for i := range words {
		words[i] = kwVocab[rng.Intn(len(kwVocab))]
	}
	if rng.Intn(5) == 0 && n >= 2 {
		words[1] = words[0] // duplicate query tokens exercise cursor pairs
	}
	return strings.Join(words, " ")
}

// requireSameHits asserts bitwise identity: IDs, order, and score bits.
func requireSameHits(t *testing.T, label string, got, want []Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d hits, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s: rank %d differs\ngot:  %+v (bits %x)\nwant: %+v (bits %x)",
				label, i, got[i], math.Float64bits(got[i].Score), want[i], math.Float64bits(want[i].Score))
		}
	}
}

// TestPostingsSegmentRoundtrip builds segments from randomized map tiers
// (including multi-block terms and chained merges) and checks every posting
// decodes back exactly.
func TestPostingsSegmentRoundtrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		docs := map[string]string{}
		nDocs := 100 + rng.Intn(300) // enough for several 128-posting blocks
		for i := 0; i < nDocs; i++ {
			docs[fmt.Sprintf("m-%04d", i)] = kwRandomDoc(rng)
		}
		// Reference postings via a plain map build.
		ref := NewKeywordIndex()
		mem := map[string]map[string]int{}
		lens := map[string]int{}
		for id, text := range docs {
			ref.Add(id, text)
		}
		// Split docs across two generations to exercise merge-with-old.
		var gen1 *PostingsSegment
		i := 0
		for id, text := range docs {
			toks := strings.Fields(text)
			lens[id] = len(toks)
			for _, tok := range toks {
				if mem[tok] == nil {
					mem[tok] = map[string]int{}
				}
				mem[tok][id]++
			}
			i++
			if i == nDocs/2 {
				var err error
				gen1, err = buildSegment(runFromMaps(mem, lens), nil)
				if err != nil {
					t.Fatal(err)
				}
				mem, lens = map[string]map[string]int{}, map[string]int{}
			}
		}
		seg, err := buildSegment(runFromMaps(mem, lens), gen1)
		if err != nil {
			t.Fatal(err)
		}
		if seg.DocCount() != nDocs {
			t.Fatalf("doc count %d, want %d", seg.DocCount(), nDocs)
		}

		check := func(label string, s *PostingsSegment) {
			got := map[string]map[string]int{}
			for ti, term := range s.terms {
				got[term] = map[string]int{}
				prev := int64(-1)
				if err := s.forEachPosting(ti, func(ord, tf uint32) {
					if int64(ord) <= prev {
						t.Fatalf("%s: term %q postings not strictly increasing", label, term)
					}
					prev = int64(ord)
					got[term][s.docIDs[ord]] = int(tf)
				}); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			for term, m := range ref.postings {
				if len(got[term]) != len(m) {
					t.Fatalf("%s: term %q df %d, want %d", label, term, len(got[term]), len(m))
				}
				for id, tf := range m {
					if got[term][id] != tf {
						t.Fatalf("%s: term %q doc %s tf %d, want %d", label, term, id, got[term][id], tf)
					}
				}
			}
			if len(got) != len(ref.postings) {
				t.Fatalf("%s: %d terms, want %d", label, len(got), len(ref.postings))
			}
		}
		check("merged", seg)
	}
}

// TestKeywordSegmentBitwiseEquivalence is the tentpole property test: across
// shard counts, merge thresholds (including merge-every-add and
// merge-disabled), ingest orders, replacements, and removals, the
// segment-backed pruned scorer must return exactly — bitwise — what the
// exhaustive single-map KeywordIndex returns, for every k, including
// tie-heavy corpora. The "disk" variants set KeywordConfig.Dir, which has no
// effect: they must answer the same, write nothing under it, and a fresh
// index bulk-loaded from the surviving texts (the reopen path) must answer
// the same too.
func TestKeywordSegmentBitwiseEquivalence(t *testing.T) {
	type variant struct {
		name string
		cfg  KeywordConfig
		disk bool
	}
	dir := t.TempDir()
	variants := []variant{
		{name: "maps-only", cfg: KeywordConfig{Shards: 4, MergeThreshold: -1}},
		{name: "merge-1", cfg: KeywordConfig{Shards: 1, MergeThreshold: 1}},
		{name: "merge-3-sharded", cfg: KeywordConfig{Shards: 16, MergeThreshold: 3}},
		{name: "merge-16", cfg: KeywordConfig{Shards: 4, MergeThreshold: 16}},
		{name: "disk-merge-4", cfg: KeywordConfig{Shards: 4, MergeThreshold: 4}, disk: true},
		{name: "disk-merge-2-sharded", cfg: KeywordConfig{Shards: 16, MergeThreshold: 2}, disk: true},
	}
	for _, seed := range []int64{11, 22, 33} {
		for vi, v := range variants {
			v := v
			t.Run(fmt.Sprintf("seed-%d/%s", seed, v.name), func(t *testing.T) {
				if v.disk {
					v.cfg.Dir = filepath.Join(dir, fmt.Sprintf("s%d-v%d", seed, vi))
				}
				rng := rand.New(rand.NewSource(seed))
				oracle := NewKeywordIndex()
				idx := NewShardedKeywordIndexConfig(v.cfg)
				defer idx.Close()
				live := map[string]string{}

				nDocs := 150 + rng.Intn(150)
				ids := make([]string, nDocs)
				for i := range ids {
					ids[i] = fmt.Sprintf("m-%04d", i)
				}
				apply := func(id, text string) {
					live[id] = text
					oracle.Add(id, text)
					if err := idx.Add(id, text); err != nil {
						t.Fatalf("Add(%s): %v", id, err)
					}
				}
				for _, id := range ids {
					text := kwRandomDoc(rng)
					if rng.Intn(6) == 0 && len(ids) > 10 {
						// Clone another doc's text to force exact score ties.
						text = kwRandomDoc(rand.New(rand.NewSource(seed ^ 0xbeef)))
					}
					apply(id, text)
				}
				// Replacements hit segment-resident docs (demote path) and
				// map-resident docs alike; removals likewise.
				for i := 0; i < 25; i++ {
					id := ids[rng.Intn(len(ids))]
					apply(id, kwRandomDoc(rng))
				}
				for i := 0; i < 15; i++ {
					id := ids[rng.Intn(len(ids))]
					delete(live, id)
					oracle.Remove(id)
					if err := idx.Remove(id); err != nil {
						t.Fatalf("Remove(%s): %v", id, err)
					}
				}
				if oracle.Len() != idx.Len() {
					t.Fatalf("Len: oracle %d, index %d", oracle.Len(), idx.Len())
				}

				for q := 0; q < 40; q++ {
					query := kwRandomQuery(rng)
					for _, k := range []int{1, 3, 10, oracle.Len() + 5} {
						want := oracle.Search(query, k)
						got, err := idx.Search(query, k)
						if err != nil {
							t.Fatalf("Search(%q): %v", query, err)
						}
						requireSameHits(t, fmt.Sprintf("query %q k=%d", query, k), got, want)
					}
				}

				if !v.disk {
					return
				}
				if err := idx.Flush(); err != nil {
					t.Fatal(err)
				}
				if _, err := os.Stat(v.cfg.Dir); !os.IsNotExist(err) {
					t.Fatalf("keyword index wrote under its Dir (stat: %v)", err)
				}
				var docs []Doc
				for id, text := range live {
					docs = append(docs, Doc{id, text})
				}
				reopened := NewShardedKeywordIndexConfig(v.cfg)
				defer reopened.Close()
				reopened.BulkLoad(docs, 2)
				for q := 0; q < 15; q++ {
					query := kwRandomQuery(rng)
					want := oracle.Search(query, 10)
					got, err := reopened.Search(query, 10)
					if err != nil {
						t.Fatal(err)
					}
					requireSameHits(t, fmt.Sprintf("reopened query %q", query), got, want)
				}
			})
		}
	}
}

// TestKeywordBlockMaxActuallyPrunes pins that the scorer skips undecoded
// blocks on a selective query over a large corpus — the perf mechanism the
// bitwise tests deliberately cannot see. The corpus is shaped for pruning:
// "the" appears in every document (idf ~ 0, so its blocks can never compete)
// while "watermark" appears in 20 early-ordinal documents, so the heap
// saturates with strong candidates immediately and the thousands of
// remaining common-term postings span whole blocks the scorer never decodes.
func TestKeywordBlockMaxActuallyPrunes(t *testing.T) {
	idx := NewShardedKeywordIndexConfig(KeywordConfig{Shards: 2, MergeThreshold: 64})
	defer idx.Close()
	oracle := NewKeywordIndex()
	for i := 0; i < 4000; i++ {
		text := "the quick brown classifier"
		if i < 20 {
			text = "the watermark detection model"
		}
		id := fmt.Sprintf("m-%05d", i)
		oracle.Add(id, text)
		if err := idx.Add(id, text); err != nil {
			t.Fatal(err)
		}
	}
	before := mKwBlocksSkipped.Value()
	got, err := idx.Search("the watermark", 10)
	if err != nil {
		t.Fatal(err)
	}
	requireSameHits(t, "pruned query", got, oracle.Search("the watermark", 10))
	if skipped := mKwBlocksSkipped.Value() - before; skipped == 0 {
		t.Fatal("block-max scorer decoded every block; expected skips on a 4k-doc corpus")
	}
}

// TestKeywordSearchAllocs is the satellite allocation regression: both the
// exhaustive KeywordIndex (pooled score map) and the segment-backed sharded
// index (pooled scratch) must stay within a small per-query allocation
// budget that does not scale with corpus size.
func TestKeywordSearchAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under -race instrumentation")
	}
	rng := rand.New(rand.NewSource(5))
	ki := NewKeywordIndex()
	idx := NewShardedKeywordIndexConfig(KeywordConfig{Shards: 4, MergeThreshold: 128})
	defer idx.Close()
	for i := 0; i < 2000; i++ {
		text := kwRandomDoc(rng)
		id := fmt.Sprintf("m-%05d", i)
		ki.Add(id, text)
		if err := idx.Add(id, text); err != nil {
			t.Fatal(err)
		}
	}
	query := "legal transformer sentiment model"
	// Warm the pools.
	ki.Search(query, 10)
	if _, err := idx.Search(query, 10); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { ki.Search(query, 10) }); n > 40 {
		t.Fatalf("KeywordIndex.Search allocates %.1f/op; budget 40 (score map must be pooled)", n)
	}
	if n := testing.AllocsPerRun(50, func() { idx.Search(query, 10) }); n > 40 {
		t.Fatalf("ShardedKeywordIndex.Search allocates %.1f/op; budget 40 (scratch must be pooled)", n)
	}
}

// TestKeywordIndexDoesNotRetainText pins that no tier keeps a card's text
// alive. Tokenize returns substrings of the lower-cased text, so a term that
// became a map key or a dictionary entry without being copied would pin the
// whole text. Each document is large, mixed-case and carries one unique
// token; once the texts are dropped, the index must hold far less than they
// did, whether the documents sit in the map tier, were merged into segments
// by Flush, or arrived by BulkLoad.
func TestKeywordIndexDoesNotRetainText(t *testing.T) {
	const nDocs, docBytes = 1000, 16 << 10
	text := func(i int) string {
		rng := rand.New(rand.NewSource(int64(i)))
		var b strings.Builder
		fmt.Fprintf(&b, "Unique%05dToken", i)
		for b.Len() < docBytes {
			w := kwVocab[rng.Intn(4)] // few terms per doc: the postings stay small beside the text
			if rng.Intn(2) == 0 {
				w = strings.ToUpper(w[:1]) + w[1:]
			}
			b.WriteString(" " + w)
		}
		return b.String()
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, arm := range []struct {
		name string
		cfg  KeywordConfig
	}{
		{"map-tier", KeywordConfig{Shards: 4, MergeThreshold: -1}},
		{"add+flush", KeywordConfig{Shards: 4}},
		{"bulk", KeywordConfig{Shards: 4}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			before := heap()
			idx := NewShardedKeywordIndexConfig(arm.cfg)
			textBytes := 0
			if arm.name == "bulk" {
				docs := make([]Doc, nDocs)
				for i := range docs {
					docs[i] = Doc{fmt.Sprintf("m-%05d", i), text(i)}
					textBytes += len(docs[i].Text)
				}
				idx.BulkLoad(docs, 2)
			} else {
				for i := 0; i < nDocs; i++ {
					txt := text(i)
					textBytes += len(txt)
					if err := idx.Add(fmt.Sprintf("m-%05d", i), txt); err != nil {
						t.Fatal(err)
					}
				}
			}
			if arm.name == "add+flush" {
				if err := idx.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			retained := int64(heap()) - int64(before)
			if mapDocs, segDocs := idx.TierDocs(); mapDocs+segDocs != nDocs || (segDocs == 0) != (arm.name == "map-tier") {
				t.Fatalf("%d map docs and %d segment docs, want %d in the arm's tier", mapDocs, segDocs, nDocs)
			}
			t.Logf("retained %d heap bytes for %d bytes of text (%.1f%%)", retained, textBytes, 100*float64(retained)/float64(textBytes))
			if retained*10 >= int64(textBytes) {
				t.Fatal("the index keeps the texts alive")
			}
			runtime.KeepAlive(idx)
		})
	}
}
