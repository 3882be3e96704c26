package search

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"modellake/internal/data"
	"modellake/internal/obs"
)

// Keyword-index metrics. Lock-wait time in Search is the direct measure of
// shard contention: it grows when concurrent ingest holds write locks, which
// is exactly the convoy sharding exists to dilute. The block counters are
// the pruning scoreboard: scanned blocks were decoded and scored, skipped
// blocks were stepped over by the block-max bound without being read.
var (
	mKwSearches      = obs.Default().Counter("keyword_searches_total")
	mKwAdds          = obs.Default().Counter("keyword_adds_total")
	mKwLockWait      = obs.Default().Histogram("keyword_search_lock_wait_seconds", nil)
	mKwBlocksScanned = obs.Default().Counter("keyword_seg_blocks_scanned_total")
	mKwBlocksSkipped = obs.Default().Counter("keyword_seg_blocks_skipped_total")
	mKwMerges        = obs.Default().Counter("keyword_seg_merges_total")
	mKwMergeFails    = obs.Default().Counter("keyword_seg_merge_failures_total")
	mKwMergeDur      = obs.Default().Histogram("keyword_seg_merge_seconds", nil)
	mKwDemotes       = obs.Default().Counter("keyword_seg_demotes_total")
	// Where documents sit, summed over every keyword index in the process (a
	// cluster holds one per node): each shard publishes the change in its
	// own counts after every operation that moves documents between tiers,
	// and Close withdraws what the index held.
	mKwMapDocs = obs.Default().Gauge("keyword_map_docs")
	mKwSegDocs = obs.Default().Gauge("keyword_segment_docs")
)

// DefaultKeywordShards is the shard count used when none is given. 16 is
// deliberately larger than the core counts we target (4–16): sharding cost
// is a few empty maps, while under-sharding reintroduces the single-lock
// convoy this structure exists to remove. Power of two keeps the hash→shard
// mapping a mask-friendly modulo.
const DefaultKeywordShards = 16

// DefaultKeywordMergeThreshold is how many documents a shard's live map
// tier accumulates before it is merged into the shard's compact postings
// segment. Merges are synchronous on the Add that crosses the threshold —
// the same self-regulating shape as the MLVF spill tail: ingest pays for
// its own compaction, so the map tier stays bounded without a background
// goroutine to coordinate with.
const DefaultKeywordMergeThreshold = 2048

// KeywordConfig configures a ShardedKeywordIndex beyond the defaults.
type KeywordConfig struct {
	// Shards is the lock-shard count; <= 0 selects DefaultKeywordShards.
	Shards int
	// MergeThreshold is the map-tier document count that triggers a merge
	// into the compact segment. Zero selects the default; negative
	// disables merging entirely (pure map tier — the pre-segment
	// behaviour, kept for benchmarks and comparison tests).
	MergeThreshold int
	// Dir has no effect: segments live in RAM only. It is kept for the
	// benchmark harness that still sets it and goes when the harness
	// stops setting it.
	Dir string
}

// keywordShard is one lock's worth of the inverted index: a disjoint subset
// of the documents, chosen by hash of the document ID. Documents live in
// exactly one of two tiers — the live map tier (fresh adds) or the
// immutable compact segment — so global statistics are simple sums.
type keywordShard struct {
	mu       sync.RWMutex
	postings map[string]map[string]int // token -> docID -> term frequency
	docLens  map[string]int
	totalLen int              // mem tier only; seg keeps its own
	seg      *PostingsSegment // nil until the first merge
	// pubMap, pubSeg are the tier counts last added to the process gauges.
	pubMap, pubSeg int
}

// publishLocked moves the process-wide tier gauges by the change in the
// shard's document counts since it last published.
func (sh *keywordShard) publishLocked() {
	m, g := len(sh.docLens), 0
	if sh.seg != nil {
		g = sh.seg.DocCount()
	}
	mKwMapDocs.Add(int64(m - sh.pubMap))
	mKwSegDocs.Add(int64(g - sh.pubSeg))
	sh.pubMap, sh.pubSeg = m, g
}

// ShardedKeywordIndex is a BM25 inverted index over model-card text, sharded
// by document so concurrent ingest streams do not serialize on one mutex.
// Each shard is two-tier: a small live map tier absorbing fresh adds, and a
// compact immutable postings segment (see postings.go) that the map tier is
// merged into as it grows. Scoring gathers the global statistics (document
// count, average length, per-token document frequency) across both tiers of
// every shard, scores the map tiers exhaustively, and runs the block-max
// pruned scorer over the segments — returning exactly the hits and scores a
// single-shard exhaustive KeywordIndex would: sharding and segmentation
// change the locking and the work, never the ranking.
type ShardedKeywordIndex struct {
	shards    []*keywordShard
	k1, bBM25 float64

	mergeThreshold int

	scratch sync.Pool // *kwScratch
}

// NewShardedKeywordIndex returns an empty index with standard BM25
// parameters (k1 = 1.2, b = 0.75) and default merge behaviour. shards <= 0
// selects DefaultKeywordShards.
func NewShardedKeywordIndex(shards int) *ShardedKeywordIndex {
	return NewShardedKeywordIndexConfig(KeywordConfig{Shards: shards})
}

// NewShardedKeywordIndexConfig returns an empty index configured by cfg.
func NewShardedKeywordIndexConfig(cfg KeywordConfig) *ShardedKeywordIndex {
	if cfg.Shards <= 0 {
		cfg.Shards = DefaultKeywordShards
	}
	if cfg.MergeThreshold == 0 {
		cfg.MergeThreshold = DefaultKeywordMergeThreshold
	}
	s := &ShardedKeywordIndex{
		shards:         make([]*keywordShard, cfg.Shards),
		k1:             1.2,
		bBM25:          0.75,
		mergeThreshold: cfg.MergeThreshold,
	}
	for i := range s.shards {
		s.shards[i] = &keywordShard{
			postings: make(map[string]map[string]int),
			docLens:  make(map[string]int),
		}
	}
	s.scratch.New = func() any {
		return &kwScratch{acc: make(map[string]float64)}
	}
	return s
}

// shardIndex places docID by 32-bit FNV-1a, inlined over the string so the
// per-Add hash allocates nothing.
func (s *ShardedKeywordIndex) shardIndex(docID string) int {
	h := uint32(2166136261)
	for i := 0; i < len(docID); i++ {
		h = (h ^ uint32(docID[i])) * 16777619
	}
	return int(h % uint32(len(s.shards)))
}

// Add indexes text under docID, replacing any previous document with the
// same ID. Only docID's shard is locked, so adds of different documents
// proceed in parallel. Replacing a document that lives in the shard's
// segment demotes the segment back into the map tier first (segments are
// immutable and tombstone-free) and merges it again before returning, so a
// compacted shard stays compacted. A demote or merge fails only on a block
// that does not decode (ErrBadPostings): a failed demote leaves the index
// unchanged and is the only error Add returns, and a failed merge leaves
// the document in the map tier.
func (s *ShardedKeywordIndex) Add(docID, text string) error {
	mKwAdds.Inc()
	sh := s.shards[s.shardIndex(docID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	defer sh.publishLocked()
	demoted := false
	if _, ok := sh.docLens[docID]; ok {
		sh.removeMemLocked(docID)
	} else if sh.seg != nil && sh.seg.contains(docID) {
		if err := sh.demoteLocked(); err != nil {
			return fmt.Errorf("replacing %s: %w", docID, err)
		}
		sh.removeMemLocked(docID)
		demoted = true
	}
	sh.addMemLocked(docID, text)
	if demoted || len(sh.docLens) >= s.mergeThreshold {
		s.tryMergeLocked(sh)
	}
	return nil
}

// addMemLocked tokenizes text into the shard's map tier. docID must not be
// in either tier.
func (sh *keywordShard) addMemLocked(docID, text string) {
	toks := data.Tokenize(text)
	sh.docLens[docID] = len(toks)
	sh.totalLen += len(toks)
	for _, tok := range toks {
		m := sh.postings[tok]
		if m == nil {
			// A token is a substring of the lower-cased text: the map
			// keeps a copy, not the whole text.
			m = make(map[string]int)
			sh.postings[strings.Clone(tok)] = m
		}
		m[docID]++
	}
}

// tryMergeLocked merges the shard's map tier into its segment when merging
// is enabled. A failure leaves the documents in the map tier.
func (s *ShardedKeywordIndex) tryMergeLocked(sh *keywordShard) {
	if s.mergeThreshold <= 0 || len(sh.docLens) == 0 {
		return
	}
	if err := sh.mergeShardLocked(); err != nil {
		mKwMergeFails.Inc()
	}
}

// Remove drops a document from the index. Removing a segment-resident
// document demotes the segment into the map tier first and merges the
// remainder again, like a replacing Add.
func (s *ShardedKeywordIndex) Remove(docID string) error {
	sh := s.shards[s.shardIndex(docID)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	defer sh.publishLocked()
	demoted := false
	if _, ok := sh.docLens[docID]; !ok {
		if sh.seg == nil || !sh.seg.contains(docID) {
			return nil
		}
		if err := sh.demoteLocked(); err != nil {
			return fmt.Errorf("removing %s: %w", docID, err)
		}
		demoted = true
	}
	sh.removeMemLocked(docID)
	if demoted {
		s.tryMergeLocked(sh)
	}
	return nil
}

// Doc is one document of a BulkLoad batch.
type Doc struct{ ID, Text string }

// BulkLoad indexes a batch of documents the index does not hold yet — the
// reopen path, where the whole corpus arrives at once. Each shard's share is
// tokenized straight into a sorted run and merged with the shard's existing
// segment by the code a map-tier merge uses, never passing through the
// nested maps; shards build on up to parallelism goroutines (<= 0 means
// GOMAXPROCS). A document already present in either tier is left alone: the
// Add that put it there raced this load and carries text at least as new. A
// shard whose merge fails, and every shard when merging is disabled, takes
// its documents into the map tier instead, exactly as Add would.
func (s *ShardedKeywordIndex) BulkLoad(docs []Doc, parallelism int) {
	mKwAdds.Add(uint64(len(docs)))
	byShard := make([][]Doc, len(s.shards))
	for _, d := range docs {
		i := s.shardIndex(d.ID)
		byShard[i] = append(byShard[i], d)
	}
	sem := make(chan struct{}, normalizeParallelism(parallelism))
	var wg sync.WaitGroup
	for i, share := range byShard {
		if len(share) == 0 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(sh *keywordShard, share []Doc) {
			defer wg.Done()
			s.bulkLoadShard(sh, share)
			<-sem
		}(s.shards[i], share)
	}
	wg.Wait()
}

func (s *ShardedKeywordIndex) bulkLoadShard(sh *keywordShard, docs []Doc) {
	// Sort by ID; of a repeated ID the last entry wins, as a loop of Adds
	// would have it.
	sort.SliceStable(docs, func(a, b int) bool { return docs[a].ID < docs[b].ID })
	uniq := docs[:0]
	for j, d := range docs {
		if j+1 == len(docs) || docs[j+1].ID != d.ID {
			uniq = append(uniq, d)
		}
	}
	docs = uniq
	// Tokenize outside the lock, on the expectation that nothing in the
	// batch is indexed yet; only a racing Add makes the run stale.
	var run *postingsRun
	if s.mergeThreshold > 0 {
		run = runFromDocs(docs)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	defer sh.publishLocked()
	absent := docs[:0]
	for _, d := range docs {
		if _, inMem := sh.docLens[d.ID]; !inMem && (sh.seg == nil || !sh.seg.contains(d.ID)) {
			absent = append(absent, d)
		}
	}
	if len(absent) == 0 {
		return
	}
	if s.mergeThreshold > 0 {
		if len(absent) < len(docs) {
			run = runFromDocs(absent)
		}
		if err := sh.mergeRunLocked(run); err == nil {
			return
		}
		mKwMergeFails.Inc()
	}
	for _, d := range absent {
		sh.addMemLocked(d.ID, d.Text)
	}
}

func (sh *keywordShard) removeMemLocked(docID string) {
	n, ok := sh.docLens[docID]
	if !ok {
		return
	}
	sh.totalLen -= n
	delete(sh.docLens, docID)
	for tok, m := range sh.postings {
		if _, ok := m[docID]; ok {
			delete(m, docID)
			if len(m) == 0 {
				delete(sh.postings, tok)
			}
		}
	}
}

// demoteLocked dissolves the shard's segment back into the map tier so a
// member document can be replaced or removed.
func (sh *keywordShard) demoteLocked() error {
	seg := sh.seg
	for t, term := range seg.terms {
		m := sh.postings[term]
		if m == nil {
			m = make(map[string]int, seg.tmeta[t].df)
			sh.postings[term] = m
		}
		if err := seg.forEachPosting(t, func(ord, tf uint32) {
			m[seg.docIDs[ord]] = int(tf)
		}); err != nil {
			return err
		}
	}
	for i, id := range seg.docIDs {
		sh.docLens[id] = int(seg.docLens[i])
		sh.totalLen += int(seg.docLens[i])
	}
	sh.seg = nil
	mKwDemotes.Inc()
	return nil
}

// mergeShardLocked merges the shard's map tier into its segment and resets
// the map tier. On any error the shard is left exactly as it was.
func (sh *keywordShard) mergeShardLocked() error {
	if err := sh.mergeRunLocked(runFromMaps(sh.postings, sh.docLens)); err != nil {
		return err
	}
	sh.postings = make(map[string]map[string]int)
	sh.docLens = make(map[string]int)
	sh.totalLen = 0
	return nil
}

// mergeRunLocked builds a fresh segment from run plus the shard's existing
// segment and swaps it in. On any error the shard is left exactly as it was.
func (sh *keywordShard) mergeRunLocked(run *postingsRun) error {
	start := time.Now()
	seg, err := buildSegment(run, sh.seg)
	if err != nil {
		return err
	}
	sh.seg = seg
	mKwMerges.Inc()
	mKwMergeDur.Since(start)
	return nil
}

// Flush merges every shard's map tier into its segment.
func (s *ShardedKeywordIndex) Flush() error {
	var firstErr error
	for i, sh := range s.shards {
		sh.mu.Lock()
		if len(sh.docLens) > 0 {
			if err := sh.mergeShardLocked(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("flushing keyword shard %d: %w", i, err)
			}
		}
		sh.publishLocked()
		sh.mu.Unlock()
	}
	return firstErr
}

// Close drops the segments and withdraws the index's documents from the
// process tier gauges. The index is unusable afterwards.
func (s *ShardedKeywordIndex) Close() error {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.seg = nil
		mKwMapDocs.Add(-int64(sh.pubMap))
		mKwSegDocs.Add(-int64(sh.pubSeg))
		sh.pubMap, sh.pubSeg = 0, 0
		sh.mu.Unlock()
	}
	return nil
}

// SegmentCount returns how many shards currently hold a compact segment.
func (s *ShardedKeywordIndex) SegmentCount() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		if sh.seg != nil {
			n++
		}
		sh.mu.RUnlock()
	}
	return n
}

// MemBytes estimates the heap retained by the index across both tiers.
// Map-tier sizes use the same per-entry overhead constants as the rest of
// the lake's residency accounting; segment sizes count the doc table,
// dictionary, block metadata and the block blob.
func (s *ShardedKeywordIndex) MemBytes() int64 {
	const mapEntry = 48 // rough per-entry bucket overhead
	const strHeader = 16
	var n int64
	for _, sh := range s.shards {
		sh.mu.RLock()
		for tok, m := range sh.postings {
			n += int64(len(tok)) + strHeader + mapEntry
			for id := range m {
				n += int64(len(id)) + strHeader + 8 + mapEntry
			}
		}
		for id := range sh.docLens {
			n += int64(len(id)) + strHeader + 8 + mapEntry
		}
		n += sh.seg.memBytes()
		sh.mu.RUnlock()
	}
	return n
}

// Len returns the number of indexed documents.
func (s *ShardedKeywordIndex) Len() int {
	mapDocs, segDocs := s.TierDocs()
	return mapDocs + segDocs
}

// TierDocs returns how many documents sit in the live map tier and how many
// in compact segments, summed over shards.
func (s *ShardedKeywordIndex) TierDocs() (mapDocs, segDocs int) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		mapDocs += len(sh.docLens)
		if sh.seg != nil {
			segDocs += sh.seg.DocCount()
		}
		sh.mu.RUnlock()
	}
	return mapDocs, segDocs
}

// KeywordStats are the corpus-wide BM25 statistics for one tokenized query:
// the document count, the total token length across documents, and the
// per-token document frequency (DF[i] belongs to the i-th query token, in
// tokenize order, duplicates included). They are the only global inputs BM25
// scoring needs, which is what makes cross-shard keyword search exact: a
// router gathers Stats from every lake shard, merges them with Merge, and
// each shard then scores its local documents under the merged stats — every
// per-document float operation happens in the same order with the same
// operands as a single index over the union would use.
type KeywordStats struct {
	Docs     int
	TotalLen int
	DF       []int
}

// Merge folds another shard's stats for the same token list into g.
func (g *KeywordStats) Merge(o KeywordStats) {
	g.Docs += o.Docs
	g.TotalLen += o.TotalLen
	if g.DF == nil {
		g.DF = make([]int, len(o.DF))
	}
	for i := range o.DF {
		g.DF[i] += o.DF[i]
	}
}

// lockAll read-locks every shard in shard order (so concurrent searches
// cannot deadlock), giving the caller a consistent global snapshot. The
// returned func releases the locks.
func (s *ShardedKeywordIndex) lockAll() func() {
	lockStart := time.Now()
	for _, sh := range s.shards {
		sh.mu.RLock()
	}
	mKwLockWait.Since(lockStart)
	return func() {
		for _, sh := range s.shards {
			sh.mu.RUnlock()
		}
	}
}

// statsLocked gathers this index's BM25 statistics for tokens across both
// tiers. Caller holds every shard read lock. Because a document lives in
// exactly one tier, each DF is the plain sum of the map tier's posting-list
// size and the segment dictionary's df.
func (s *ShardedKeywordIndex) statsLocked(tokens []string) KeywordStats {
	g := KeywordStats{DF: make([]int, len(tokens))}
	for _, sh := range s.shards {
		g.Docs += len(sh.docLens)
		g.TotalLen += sh.totalLen
		if sh.seg != nil {
			g.Docs += sh.seg.DocCount()
			g.TotalLen += int(sh.seg.totalLen)
		}
	}
	for i, tok := range tokens {
		for _, sh := range s.shards {
			g.DF[i] += len(sh.postings[tok])
			if sh.seg != nil {
				g.DF[i] += sh.seg.df(tok)
			}
		}
	}
	return g
}

// scoreLocked ranks this index's documents by BM25 under the given (possibly
// cluster-global) statistics. Caller holds every shard read lock.
//
// Map tiers are scored exhaustively with a pooled accumulator: the float
// accumulation per document runs in token order, so a document's score
// depends only on its own term frequencies, its length, and the global
// stats — never on which shard (or which index, or which tier) holds it.
// Segments are scored by the block-max pruned scorer, which scores the
// documents it does not prune with the identical bm25Term sequence. Both
// feed one bounded top-k heap whose strict (score desc, ID asc) order
// matches sortHits, so the result is bitwise-identical to exhaustive
// scoring.
func (s *ShardedKeywordIndex) scoreLocked(tokens []string, g KeywordStats, k int) ([]Hit, error) {
	n := g.Docs
	if n == 0 || k <= 0 {
		return nil, nil
	}
	avgLen := float64(g.TotalLen) / float64(n)
	if avgLen == 0 {
		avgLen = 1
	}
	sc := s.scratch.Get().(*kwScratch)
	defer s.putScratch(sc)

	sc.idf = sc.idf[:0]
	for i := range tokens {
		idf := 0.0 // zero marks "no matches anywhere" — log above is never 0 for df >= 1
		if g.DF[i] > 0 {
			idf = bm25IDF(n, g.DF[i])
		}
		sc.idf = append(sc.idf, idf)
	}
	sc.heap.reset(k)

	for _, sh := range s.shards {
		if len(sh.docLens) == 0 {
			continue
		}
		clear(sc.acc)
		for ti, tok := range tokens {
			if sc.idf[ti] == 0 {
				continue
			}
			for docID, tf := range sh.postings[tok] {
				dl := float64(sh.docLens[docID])
				sc.acc[docID] += bm25Term(sc.idf[ti], float64(tf), dl, avgLen, s.k1, s.bBM25)
			}
		}
		for id, score := range sc.acc {
			sc.heap.offer(id, score)
		}
	}
	for _, sh := range s.shards {
		if sh.seg == nil {
			continue
		}
		if err := scoreSegment(sh.seg, tokens, sc, avgLen, s.k1, s.bBM25); err != nil {
			return nil, err
		}
	}

	hits := sc.heap.drain(make([]Hit, 0, len(sc.heap.items)))
	sortHits(hits)
	return hits, nil
}

func (s *ShardedKeywordIndex) putScratch(sc *kwScratch) {
	mKwBlocksScanned.Add(uint64(sc.scanned))
	mKwBlocksSkipped.Add(uint64(sc.skipped))
	sc.scanned, sc.skipped = 0, 0
	s.scratch.Put(sc)
}

// Search returns up to k documents ranked by BM25 relevance to the query.
// All shards are read-locked for the duration of the scoring pass, giving
// each query a consistent global snapshot. The only error source is a
// block that fails to decode (ErrBadPostings).
func (s *ShardedKeywordIndex) Search(query string, k int) ([]Hit, error) {
	mKwSearches.Inc()
	tokens := data.Tokenize(query)
	unlock := s.lockAll()
	defer unlock()
	return s.scoreLocked(tokens, s.statsLocked(tokens), k)
}

// Stats returns this index's BM25 statistics for an already-tokenized query
// — phase one of an exact cross-shard keyword search.
func (s *ShardedKeywordIndex) Stats(tokens []string) KeywordStats {
	unlock := s.lockAll()
	defer unlock()
	return s.statsLocked(tokens)
}

// SearchWithStats ranks this index's documents under externally gathered
// global statistics — phase two of an exact cross-shard keyword search. g
// must have been gathered (and merged) for data.Tokenize(query); with
// g == Stats(tokens) this is exactly Search.
func (s *ShardedKeywordIndex) SearchWithStats(query string, g KeywordStats, k int) ([]Hit, error) {
	mKwSearches.Inc()
	unlock := s.lockAll()
	defer unlock()
	return s.scoreLocked(data.Tokenize(query), g, k)
}

// KeywordBlockCounters returns the process-wide block-max scoreboard —
// cumulative decoded (scanned) and pruned-without-decode (skipped) block
// counts across every ShardedKeywordIndex. Benchmarks diff it around a
// query batch to report pruning effectiveness.
func KeywordBlockCounters() (scanned, skipped uint64) {
	return mKwBlocksScanned.Value(), mKwBlocksSkipped.Value()
}
