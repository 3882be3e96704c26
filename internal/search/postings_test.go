package search

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"modellake/internal/fault"
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
// decodes back exactly, through both the RAM and the disk block source.
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
		crcs := map[string]uint64{}
		for id, text := range docs {
			ref.Add(id, text)
		}
		// Split docs across two generations to exercise merge-with-old.
		var gen1 *PostingsSegment
		i := 0
		for id, text := range docs {
			target := mem
			_ = target
			toks := strings.Fields(text)
			lens[id] = len(toks)
			crcs[id] = textCRC(text)
			for _, tok := range toks {
				if mem[tok] == nil {
					mem[tok] = map[string]int{}
				}
				mem[tok][id]++
			}
			i++
			if i == nDocs/2 {
				var err error
				gen1, err = buildSegment(runFromMaps(mem, lens, crcs), nil)
				if err != nil {
					t.Fatal(err)
				}
				mem, lens, crcs = map[string]map[string]int{}, map[string]int{}, map[string]uint64{}
			}
		}
		seg, err := buildSegment(runFromMaps(mem, lens, crcs), gen1)
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
		check("ram", seg)

		// Publish and reopen disk-resident: the same postings must decode
		// via pread.
		path := filepath.Join(t.TempDir(), "kw-00.seg")
		if _, err := writeSegmentFile(nil, path, seg, 0, 1); err != nil {
			t.Fatal(err)
		}
		dseg, err := openSegmentFile(nil, path, 0, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		defer dseg.src.close()
		check("disk", dseg)
		if dseg.src.memBytes() != 0 {
			t.Fatalf("disk segment reports %d blob bytes on heap", dseg.src.memBytes())
		}
		// And in-RAM reopen too.
		rseg, err := openSegmentFile(nil, path, 0, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		check("reopened-ram", rseg)
	}
}

// TestKeywordSegmentBitwiseEquivalence is the tentpole property test: across
// shard counts, merge thresholds (including merge-every-add and
// merge-disabled), disk residency, ingest orders, replacements, and
// removals, the segment-backed pruned scorer must return exactly — bitwise —
// what the exhaustive single-map KeywordIndex returns, for every k,
// including tie-heavy corpora.
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

				nDocs := 150 + rng.Intn(150)
				ids := make([]string, nDocs)
				for i := range ids {
					ids[i] = fmt.Sprintf("m-%04d", i)
				}
				apply := func(id, text string) {
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

				// Flush publishes everything; a fresh index adopting the
				// segments (disk variants) must answer identically with no
				// documents re-added at all.
				if v.disk {
					if err := idx.Flush(); err != nil {
						t.Fatal(err)
					}
					texts := map[string]uint64{}
					for id, n := range oracle.docLens {
						_ = n
						texts[id] = 0 // filled below from segment verification callback
					}
					reopened := NewShardedKeywordIndexConfig(v.cfg)
					defer reopened.Close()
					covered := reopened.AdoptSegments(func(docID string, crc uint64) bool {
						_, ok := texts[docID]
						return ok // every live doc's CRC is whatever was indexed; stale docs are gone from oracle
					})
					if len(covered) != oracle.Len() {
						t.Fatalf("adopted %d docs, oracle has %d", len(covered), oracle.Len())
					}
					for q := 0; q < 15; q++ {
						query := kwRandomQuery(rng)
						want := oracle.Search(query, 10)
						got, err := reopened.Search(query, 10)
						if err != nil {
							t.Fatal(err)
						}
						requireSameHits(t, fmt.Sprintf("reopened query %q", query), got, want)
					}
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

// TestPostingsSegmentDamage corrupts a published segment byte by byte
// (sampled) plus truncation and wrong-shard cases: every damaged file must
// fail openSegmentFile with ErrBadPostings — never parse into garbage.
func TestPostingsSegmentDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mem := map[string]map[string]int{}
	lens := map[string]int{}
	crcs := map[string]uint64{}
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("m-%04d", i)
		text := kwRandomDoc(rng)
		toks := strings.Fields(text)
		lens[id] = len(toks)
		crcs[id] = textCRC(text)
		for _, tok := range toks {
			if mem[tok] == nil {
				mem[tok] = map[string]int{}
			}
			mem[tok][id]++
		}
	}
	seg, err := buildSegment(runFromMaps(mem, lens, crcs), nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "kw-00.seg")
	if _, err := writeSegmentFile(nil, path, seg, 0, 1); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	expectBad := func(label string) {
		t.Helper()
		s, err := openSegmentFile(nil, path, 0, 1, true)
		if err == nil {
			s.src.close()
			t.Fatalf("%s: damaged segment opened clean", label)
		}
	}
	// Flip a byte at a spread of offsets covering header, meta, and blob.
	for _, off := range []int{0, 5, 17, postingsHdrLen - 1, postingsHdrLen + 3, len(orig)/2 + 1, len(orig) - 1} {
		mut := append([]byte(nil), orig...)
		mut[off] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		expectBad(fmt.Sprintf("bit flip at %d", off))
	}
	// Truncations at every region boundary and inside each region.
	for _, n := range []int{0, 10, postingsHdrLen, postingsHdrLen + 7, len(orig) - 1} {
		if err := os.WriteFile(path, orig[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		expectBad(fmt.Sprintf("truncated to %d", n))
	}
	// Restore intact, then demand a different shard layout: reject.
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := openSegmentFile(nil, path, 1, 2, true); err == nil {
		s.src.close()
		t.Fatal("segment for shard 0/1 adopted as shard 1/2")
	}
	// And intact with the right identity still opens.
	s, err := openSegmentFile(nil, path, 0, 1, true)
	if err != nil {
		t.Fatalf("intact segment rejected: %v", err)
	}
	s.src.close()
}

// TestKeywordCrashWindowSweep fails every file operation of a disk-resident
// keyword workload in turn — clean, torn, and sticky — and asserts the
// crash-safety contract: the live index keeps answering bitwise-correctly
// (merge failures fall back to the map tier), and whatever segment files a
// "crashed" run leaves behind either fail Open or serve complete
// bitwise-correct answers after adoption, never garbage.
func TestKeywordCrashWindowSweep(t *testing.T) {
	const nDocs = 60
	docs := make(map[string]string, nDocs)
	rng := rand.New(rand.NewSource(13))
	ids := make([]string, nDocs)
	for i := range ids {
		ids[i] = fmt.Sprintf("m-%04d", i)
		docs[ids[i]] = kwRandomDoc(rng)
	}
	oracle := NewKeywordIndex()
	for _, id := range ids {
		oracle.Add(id, docs[id])
	}
	queries := []string{"legal transformer", "the model data", "watermark", "speech vision qa"}
	wantFor := map[string][]Hit{}
	for _, q := range queries {
		wantFor[q] = oracle.Search(q, 10)
	}

	// Two ways a segment gets published: merges and a final Flush as
	// documents trickle in through Add (what Close does), and one BulkLoad
	// on top of segments already in place (what the lake's reopen drain does).
	for _, wl := range []struct {
		name string
		load func(idx *ShardedKeywordIndex) []error
	}{
		{"add+flush", func(idx *ShardedKeywordIndex) []error {
			var errs []error
			for _, id := range ids {
				if err := idx.Add(id, docs[id]); err != nil {
					errs = append(errs, err)
				}
			}
			if err := idx.Flush(); err != nil {
				errs = append(errs, err)
			}
			return errs
		}},
		{"bulk", func(idx *ShardedKeywordIndex) []error {
			var errs []error
			for _, id := range ids[:nDocs/3] {
				if err := idx.Add(id, docs[id]); err != nil {
					errs = append(errs, err)
				}
			}
			var batch []Doc
			for _, id := range ids[nDocs/3:] {
				batch = append(batch, Doc{id, docs[id]})
			}
			idx.BulkLoad(batch, 2)
			return errs
		}},
	} {
		workload := func(dir string, fsys *fault.FS) (*ShardedKeywordIndex, []error) {
			idx := NewShardedKeywordIndexConfig(KeywordConfig{
				Shards: 2, MergeThreshold: 8, Dir: dir, FS: fsys,
			})
			return idx, wl.load(idx)
		}

		// Enumerate the workload's fault points.
		rec := &fault.Recorder{}
		idx, errs := workload(t.TempDir(), fault.New(rec))
		if len(errs) > 0 {
			t.Fatalf("%s: clean run errored: %v", wl.name, errs)
		}
		idx.Close()
		nOps := len(rec.Ops())
		if nOps == 0 {
			t.Fatalf("%s: recorder saw no segment IO; sweep is vacuous", wl.name)
		}

		for n := 1; n <= nOps; n++ {
			for _, mode := range []struct {
				name   string
				script *fault.Script
			}{
				{"clean", &fault.Script{FailAt: n}},
				{"torn", &fault.Script{FailAt: n, Torn: 3}},
				{"sticky", &fault.Script{FailAt: n, Sticky: true}},
			} {
				label := fmt.Sprintf("%s op %d (%s)", wl.name, n, mode.name)
				dir := t.TempDir()
				idx, _ := workload(dir, fault.New(mode.script))
				// Contract 1: the live index answers bitwise-correctly no
				// matter which op failed — documents whose merge failed are
				// still served from the map tier.
				for _, q := range queries {
					got, err := idx.Search(q, 10)
					if err != nil {
						t.Fatalf("%s: live search %q: %v", label, q, err)
					}
					requireSameHits(t, fmt.Sprintf("%s live %q", label, q), got, wantFor[q])
				}
				idx.Close()

				// Contract 2: reopen. Adopt whatever files survived (fault-free
				// FS now — the "disk" is healthy again), top up the uncovered
				// documents, and demand bitwise-correct answers.
				re := NewShardedKeywordIndexConfig(KeywordConfig{
					Shards: 2, MergeThreshold: 8, Dir: dir,
				})
				covered := map[string]bool{}
				for _, id := range re.AdoptSegments(func(docID string, crc uint64) bool {
					text, ok := docs[docID]
					return ok && textCRC(text) == crc
				}) {
					if covered[id] {
						t.Fatalf("%s: doc %s covered twice", label, id)
					}
					covered[id] = true
				}
				var uncovered []Doc
				for _, id := range ids {
					if !covered[id] {
						uncovered = append(uncovered, Doc{id, docs[id]})
					}
				}
				re.BulkLoad(uncovered, 2)
				for _, q := range queries {
					got, err := re.Search(q, 10)
					if err != nil {
						t.Fatalf("%s: reopened search %q: %v", label, q, err)
					}
					requireSameHits(t, fmt.Sprintf("%s reopened %q", label, q), got, wantFor[q])
				}
				re.Close()
			}
		}
	}
}

// TestAdoptSegmentsRejectsStaleDocs pins the freshness contract: if any
// covered document's text changed since the segment was published, the
// whole shard segment is rejected and its documents fall back to re-adds.
func TestAdoptSegmentsRejectsStaleDocs(t *testing.T) {
	dir := t.TempDir()
	docs := map[string]string{}
	rng := rand.New(rand.NewSource(21))
	idx := NewShardedKeywordIndexConfig(KeywordConfig{Shards: 2, MergeThreshold: 4, Dir: dir})
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("m-%04d", i)
		docs[id] = kwRandomDoc(rng)
		if err := idx.Add(id, docs[id]); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Flush(); err != nil {
		t.Fatal(err)
	}
	idx.Close()

	// One document's text "changes" behind the segment's back.
	stale := "m-0007"
	docs[stale] = docs[stale] + " freshly edited"

	re := NewShardedKeywordIndexConfig(KeywordConfig{Shards: 2, MergeThreshold: 4, Dir: dir})
	defer re.Close()
	covered := re.AdoptSegments(func(docID string, crc uint64) bool {
		return textCRC(docs[docID]) == crc
	})
	for _, id := range covered {
		if id == stale {
			t.Fatal("stale document adopted from segment")
		}
	}
	// The stale doc's whole shard was rejected; the other shard may have
	// adopted. Re-add everything uncovered and verify against an oracle
	// built from the *current* texts.
	cov := map[string]bool{}
	for _, id := range covered {
		cov[id] = true
	}
	oracle := NewKeywordIndex()
	for id, text := range docs {
		oracle.Add(id, text)
		if !cov[id] {
			if err := re.Add(id, text); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, q := range []string{"legal", "the model", "watermark edited"} {
		got, err := re.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		requireSameHits(t, "post-stale-adopt "+q, got, oracle.Search(q, 10))
	}
}
