package search

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"modellake/internal/data"
)

// TestShardIndexMatchesFNV pins the inlined hash to hash/fnv, so document
// placement across shards stays what it has always been.
func TestShardIndexMatchesFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ids := []string{"", "a", "m-000001", "模型-7", string([]byte{0xff, 0x00, 0x80})}
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		ids = append(ids, string(b), fmt.Sprintf("m-%06d", rng.Intn(1_000_000)))
	}
	for _, shards := range []int{1, 2, 3, 16, 17, 64} {
		s := NewShardedKeywordIndex(shards)
		for _, id := range ids {
			h := fnv.New32a()
			h.Write([]byte(id))
			if want := int(h.Sum32() % uint32(shards)); s.shardIndex(id) != want {
				t.Fatalf("shardIndex(%q) over %d shards = %d, hash/fnv says %d", id, shards, s.shardIndex(id), want)
			}
		}
	}
}

// bulkQuery draws a query with duplicate and absent tokens mixed in.
func bulkQuery(rng *rand.Rand) string {
	q := kwRandomQuery(rng)
	if rng.Intn(4) == 0 {
		q += " zzzabsent"
	}
	if rng.Intn(4) == 0 {
		q = "nosuchtoken " + q
	}
	return q
}

// TestBulkLoadEquivalence is the tentpole property: over generated corpora,
// shard counts, and with and without a segment already in place, an index
// filled by BulkLoad answers bit for bit like one filled by Add + Flush and
// like the exhaustive KeywordIndex, reports the same Stats, holds nothing in
// its map tier, and has built segments identical to the Flush path's. The
// disk-true arms set KeywordConfig.Dir, which has no effect: nothing may be
// written under it.
func TestBulkLoadEquivalence(t *testing.T) {
	for _, seed := range []int64{5, 6, 7} {
		for _, shards := range []int{1, 4, 16} {
			for _, pre := range []bool{false, true} {
				for _, disk := range []bool{false, true} {
					name := fmt.Sprintf("seed-%d/shards-%d/pre-%v/disk-%v", seed, shards, pre, disk)
					t.Run(name, func(t *testing.T) {
						testBulkLoadEquivalence(t, seed, shards, pre, disk)
					})
				}
			}
		}
	}
}

func testBulkLoadEquivalence(t *testing.T, seed int64, shards int, pre, disk bool) {
	rng := rand.New(rand.NewSource(seed))
	var dirs []string
	open := func() *ShardedKeywordIndex {
		cfg := KeywordConfig{Shards: shards}
		if disk {
			cfg.Dir = t.TempDir()
			dirs = append(dirs, cfg.Dir)
		}
		idx := NewShardedKeywordIndexConfig(cfg)
		t.Cleanup(func() { idx.Close() })
		return idx
	}
	bulk, incr, oracle := open(), open(), NewKeywordIndex()

	nDocs := 200 + rng.Intn(400) // several 128-posting blocks in the small shard counts
	docs := make([]Doc, nDocs)
	for i := range docs {
		docs[i] = Doc{ID: fmt.Sprintf("m-%05d", rng.Intn(100_000)*1000+i), Text: kwRandomDoc(rng)}
		if rng.Intn(6) == 0 {
			docs[i].Text = "the model legal legal data" // exact score ties
		}
		oracle.Add(docs[i].ID, docs[i].Text)
	}
	rest := docs
	if pre {
		for _, d := range docs[:nDocs/3] {
			for _, idx := range []*ShardedKeywordIndex{bulk, incr} {
				if err := idx.Add(d.ID, d.Text); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, idx := range []*ShardedKeywordIndex{bulk, incr} {
			if err := idx.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		rest = docs[nDocs/3:]
	}

	merges := mKwMerges.Value()
	bulk.BulkLoad(rest, 1+rng.Intn(4))
	if mapDocs, segDocs := bulk.TierDocs(); mapDocs != 0 || segDocs != nDocs {
		t.Fatalf("after BulkLoad: %d map docs, %d segment docs; want 0 and %d", mapDocs, segDocs, nDocs)
	}
	if got := int(mKwMerges.Value() - merges); got != bulk.SegmentCount() {
		t.Fatalf("BulkLoad ran %d merges for %d non-empty shards", got, bulk.SegmentCount())
	}
	for _, d := range rest {
		if err := incr.Add(d.ID, d.Text); err != nil {
			t.Fatal(err)
		}
	}
	if err := incr.Flush(); err != nil {
		t.Fatal(err)
	}
	if bulk.MemBytes() != incr.MemBytes() {
		t.Fatalf("MemBytes: bulk %d, incremental %d", bulk.MemBytes(), incr.MemBytes())
	}

	for q := 0; q < 40; q++ {
		query := bulkQuery(rng)
		tokens := data.Tokenize(query)
		if bs, is := bulk.Stats(tokens), incr.Stats(tokens); !reflect.DeepEqual(bs, is) {
			t.Fatalf("Stats(%q): bulk %+v, incremental %+v", query, bs, is)
		}
		for _, k := range []int{0, 1, 10, nDocs + 5} {
			want := oracle.Search(query, k)
			for label, idx := range map[string]*ShardedKeywordIndex{"bulk": bulk, "incremental": incr} {
				got, err := idx.Search(query, k)
				if err != nil {
					t.Fatalf("%s Search(%q): %v", label, query, err)
				}
				requireSameHits(t, fmt.Sprintf("%s %q k=%d", label, query, k), got, want)
			}
		}
	}

	for i := 0; i < shards; i++ {
		if !reflect.DeepEqual(bulk.shards[i].seg, incr.shards[i].seg) {
			t.Fatalf("shard %d: bulk-built segment differs from the Flush path's", i)
		}
	}
	if disk {
		for _, d := range dirs {
			if entries, err := os.ReadDir(d); err != nil || len(entries) > 0 {
				t.Fatalf("keyword index wrote under its Dir %s: %d entries, %v", d, len(entries), err)
			}
		}
	}
}

// TestBulkLoadLeavesIndexedDocsAlone pins the insert-if-absent contract the
// lake's drain relies on: a document some Add already indexed — map tier or
// segment — keeps that Add's text, a repeated ID in the batch resolves to
// its last entry, and with merging disabled everything lands in the map tier.
func TestBulkLoadLeavesIndexedDocsAlone(t *testing.T) {
	idx := NewShardedKeywordIndexConfig(KeywordConfig{Shards: 2})
	defer idx.Close()
	oracle := NewKeywordIndex()
	for _, d := range []Doc{{"in-seg", "watermark provenance"}, {"in-map", "fairness robustness"}} {
		oracle.Add(d.ID, d.Text)
		if err := idx.Add(d.ID, d.Text); err != nil {
			t.Fatal(err)
		}
		if d.ID == "in-seg" {
			if err := idx.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	oracle.Add("fresh", "legal qa legal")
	idx.BulkLoad([]Doc{
		{"in-seg", "stale text"}, {"in-map", "stale text"},
		{"fresh", "stale text"}, {"fresh", "legal qa legal"},
	}, 0)
	for _, q := range []string{"stale text", "watermark", "fairness", "legal"} {
		got, err := idx.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		requireSameHits(t, q, got, oracle.Search(q, 10))
	}
	if mapDocs, segDocs := idx.TierDocs(); mapDocs != 1 || segDocs != 2 {
		t.Fatalf("tiers after BulkLoad: %d map, %d segment; want 1 and 2", mapDocs, segDocs)
	}

	maps := NewShardedKeywordIndexConfig(KeywordConfig{Shards: 2, MergeThreshold: -1})
	maps.BulkLoad([]Doc{{"a", "legal qa"}, {"b", "legal"}}, 0)
	if mapDocs, segDocs := maps.TierDocs(); mapDocs != 2 || segDocs != 0 {
		t.Fatalf("merge-disabled BulkLoad: %d map, %d segment; want 2 and 0", mapDocs, segDocs)
	}
}

// TestDemotedShardRemerges pins that replacing or removing a
// segment-resident document leaves the shard compacted again, however few
// documents it holds, and that the result still answers like the oracle.
func TestDemotedShardRemerges(t *testing.T) {
	idx := NewShardedKeywordIndexConfig(KeywordConfig{Shards: 4})
	defer idx.Close()
	oracle := NewKeywordIndex()
	rng := rand.New(rand.NewSource(17))
	var docs []Doc
	for i := 0; i < 120; i++ {
		docs = append(docs, Doc{fmt.Sprintf("m-%04d", i), kwRandomDoc(rng)})
		oracle.Add(docs[i].ID, docs[i].Text)
	}
	idx.BulkLoad(docs, 0)
	segs := idx.SegmentCount()

	demotes := mKwDemotes.Value()
	oracle.Add("m-0007", "freshly edited watermark")
	if err := idx.Add("m-0007", "freshly edited watermark"); err != nil {
		t.Fatal(err)
	}
	oracle.Remove("m-0011")
	if err := idx.Remove("m-0011"); err != nil {
		t.Fatal(err)
	}
	if mKwDemotes.Value()-demotes != 2 {
		t.Fatal("edits of segment-resident docs did not go through a demote")
	}
	if mapDocs, segDocs := idx.TierDocs(); mapDocs != 0 || segDocs != 119 || idx.SegmentCount() != segs {
		t.Fatalf("after replace+remove %d map docs, %d segment docs, %d segments; want 0, 119, %d",
			mapDocs, segDocs, idx.SegmentCount(), segs)
	}
	for _, q := range []string{"watermark edited", "the model", "legal transformer"} {
		got, err := idx.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		requireSameHits(t, q, got, oracle.Search(q, 10))
	}
}
