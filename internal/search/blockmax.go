package search

import "math"

// Block-max pruned BM25 top-k over postings segments.
//
// The scorer is WAND-shaped: per-term cursors walk the segment's blocks in
// ordinal (== docID) order, and before any document is scored the sum of
// the matching blocks' upper bounds is compared against the current k-th
// best score. A block's bound is the largest BM25 contribution any posting
// in it can make — computed from the block's max term frequency at document
// length zero, since the contribution is monotone increasing in tf and
// decreasing in dl. When the summed bound cannot beat the heap's worst
// entry, whole blocks are skipped without ever being decoded.
//
// Pruning never changes the answer: documents that do get scored are scored
// by exactly the same float64 expression, in exactly the same per-document
// token order, as the exhaustive map scorer — so the returned top-k is
// bitwise-identical (IDs, order, score bits, tie-breaks) to scoring every
// document. Skipped documents are provably unable to enter the top-k under
// the strict (score desc, ID asc) total order: a candidate displaces the
// heap's worst entry only when its score strictly exceeds it or ties with a
// smaller ID, and pruning requires bound < worst-score strictly, which the
// boundSlack margin makes safe against the bound expression's own rounding.

// boundSlack inflates block upper bounds multiplicatively. The bound and
// the real contribution are both ~5-flop expressions whose relative
// rounding error is below 2^-50 ≈ 1e-15; a 1e-9 relative margin dwarfs it
// while costing effectively no pruning power, since competing documents'
// scores differ at far coarser granularity.
const boundSlack = 1 + 1e-9

// bm25IDF is the shared inverse-document-frequency term. Every scorer in
// the package (exhaustive map, mem tier, segment) must go through this and
// bm25Term so each per-document float operation has identical operands and
// order — the bitwise-equivalence contract.
func bm25IDF(n, df int) float64 {
	return math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
}

// bm25Term is one token's contribution to one document's score.
func bm25Term(idf, tf, dl, avgLen, k1, b float64) float64 {
	num := tf * (k1 + 1)
	den := tf + k1*(1-b+b*dl/avgLen)
	return idf * num / den
}

// bm25Bound is the largest value bm25Term can take over a block: tf at the
// block max, dl at zero, inflated by boundSlack.
func bm25Bound(idf, maxTF, k1, b float64) float64 {
	num := maxTF * (k1 + 1)
	den := maxTF + k1*(1-b)
	return idf * num / den * boundSlack
}

// kwCandidate is one entry in the bounded top-k heap.
type kwCandidate struct {
	id    string
	score float64
}

// better reports whether a outranks b under the result total order:
// higher score first, ties broken by ascending ID. IDs are unique, so the
// order is strict.
func better(a, b kwCandidate) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id < b.id
}

// kwHeap keeps the k best candidates seen so far; the root is the worst
// retained entry, so thresholding and eviction are O(log k).
type kwHeap struct {
	items []kwCandidate
	k     int
}

func (h *kwHeap) reset(k int) {
	h.items = h.items[:0]
	h.k = k
}

func (h *kwHeap) full() bool { return len(h.items) >= h.k }

// worst returns the score a candidate must beat (or tie with a smaller ID)
// to enter a full heap.
func (h *kwHeap) worst() float64 { return h.items[0].score }

func (h *kwHeap) offer(id string, score float64) {
	c := kwCandidate{id: id, score: score}
	if len(h.items) < h.k {
		h.items = append(h.items, c)
		i := len(h.items) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !better(h.items[parent], h.items[i]) {
				break
			}
			h.items[parent], h.items[i] = h.items[i], h.items[parent]
			i = parent
		}
		return
	}
	if !better(c, h.items[0]) {
		return
	}
	h.items[0] = c
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(h.items) && better(h.items[worst], h.items[l]) {
			worst = l
		}
		if r < len(h.items) && better(h.items[worst], h.items[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}

// drain appends the heap's contents to hits (unordered) and empties it.
func (h *kwHeap) drain(hits []Hit) []Hit {
	for _, c := range h.items {
		hits = append(hits, Hit{ID: c.id, Score: c.score})
	}
	h.items = h.items[:0]
	return hits
}

// ordExhausted marks a cursor with no postings left.
const ordExhausted = int64(math.MaxInt64)

// segCursor walks one query token's postings within a segment. cur is the
// cursor's current ordinal; while the current block is undecoded, cur is a
// lower bound (the first ordinal the block could contain that the cursor
// still cares about) and is corrected on decode. That laziness is what lets
// pruning step over blocks without reading them.
type segCursor struct {
	ti      int     // index into the query token list (for token-order sums)
	term    int     // term index within the segment
	idf     float64 // global idf of the token
	blk     int     // current block, 0-based within the term's run
	nBlocks int
	cur     int64 // current ordinal (lower bound while undecoded)
	decoded bool
	pos     int     // position within the decoded block
	n       int     // postings in the decoded block
	bound   float64 // bm25Bound of the current block
	ords    [postingsBlockSize]uint32
	tfs     [postingsBlockSize]uint32
}

// kwScratch is the pooled per-search workspace: idf table, per-shard map
// accumulator for the mem tier, the top-k heap, segment cursors, and block
// counters flushed to metrics once per search.
type kwScratch struct {
	idf     []float64
	acc     map[string]float64
	heap    kwHeap
	cursors []segCursor
	scanned int64
	skipped int64
}

// setBlock points c at block blk, undecoded, with cur as the lower bound
// of the next ordinal of interest.
func (c *segCursor) setBlock(seg *PostingsSegment, blk int, seek int64) {
	if blk >= c.nBlocks {
		c.cur = ordExhausted
		c.decoded = false
		return
	}
	c.blk = blk
	c.decoded = false
	lb := seg.prevLastOrd(c.term, blk) + 1
	if seek > lb {
		lb = seek
	}
	c.cur = lb
	c.bound = 0 // recomputed lazily by blockBound (bounds are always > 0)
}

// blockBound returns the bound of c's current block, computing it on first
// use per block.
func (c *segCursor) blockBound(seg *PostingsSegment, k1, b float64) float64 {
	if c.bound == 0 {
		bm := seg.blocks[int(seg.tmeta[c.term].firstBlock)+c.blk]
		c.bound = bm25Bound(c.idf, float64(bm.maxTF), k1, b)
	}
	return c.bound
}

// decode materializes c's current block and advances pos to the first
// ordinal >= the cursor's lower bound, correcting cur upward.
func (c *segCursor) decode(seg *PostingsSegment, sc *kwScratch) error {
	n, err := seg.decodeBlock(c.term, c.blk, c.ords[:], c.tfs[:])
	if err != nil {
		return err
	}
	sc.scanned++
	c.n = n
	c.decoded = true
	seek := c.cur
	c.pos = 0
	for c.pos < c.n && int64(c.ords[c.pos]) < seek {
		c.pos++
	}
	if c.pos == c.n {
		// Possible only when seek exceeds every ordinal in the block,
		// which advanceTo prevents; step to the next block defensively.
		c.setBlock(seg, c.blk+1, seek)
		return nil
	}
	c.cur = int64(c.ords[c.pos])
	return nil
}

// next advances a decoded cursor past its current posting.
func (c *segCursor) next(seg *PostingsSegment) {
	c.pos++
	if c.pos < c.n {
		c.cur = int64(c.ords[c.pos])
		return
	}
	c.setBlock(seg, c.blk+1, 0)
}

// advanceTo moves the cursor to the first posting with ordinal >= target,
// skipping whole blocks — undecoded ones are counted as pruned.
func (c *segCursor) advanceTo(seg *PostingsSegment, target int64, sc *kwScratch) {
	tm := seg.tmeta[c.term]
	blk := c.blk
	for blk < c.nBlocks && int64(seg.blocks[int(tm.firstBlock)+blk].lastOrd) < target {
		if blk == c.blk && c.decoded {
			// current block was already paid for
		} else {
			sc.skipped++
		}
		blk++
	}
	if blk != c.blk || !c.decoded {
		c.setBlock(seg, blk, target)
		return
	}
	// Still inside the decoded current block: walk pos forward.
	for c.pos < c.n && int64(c.ords[c.pos]) < target {
		c.pos++
	}
	if c.pos == c.n {
		c.setBlock(seg, c.blk+1, target)
		return
	}
	c.cur = int64(c.ords[c.pos])
}

// scoreSegment runs the block-max pruned scorer over one shard's segment,
// offering every surviving document to the heap with its exact BM25 score.
// tokens/idf are the query in tokenize order (idf zero marks tokens with no
// global matches); avgLen and the heap are shared with the mem-tier pass.
func scoreSegment(seg *PostingsSegment, tokens []string, sc *kwScratch, avgLen, k1, b float64) error {
	// One cursor per query token present in this segment, in token order.
	// Duplicate query tokens get duplicate cursors, which keeps the
	// per-document contribution sequence identical to the exhaustive
	// scorer's token-order accumulation.
	cursors := sc.cursors[:0]
	for ti := range tokens {
		if sc.idf[ti] == 0 {
			continue
		}
		t, ok := seg.termIndex(tokens[ti])
		if !ok {
			continue
		}
		cursors = append(cursors, segCursor{
			ti:      ti,
			term:    t,
			idf:     sc.idf[ti],
			nBlocks: int(seg.tmeta[t].nBlocks),
		})
		c := &cursors[len(cursors)-1]
		c.setBlock(seg, 0, 0)
	}
	sc.cursors = cursors
	if len(cursors) == 0 {
		return nil
	}
	heap := &sc.heap

	for {
		// Pivot: the smallest current ordinal across live cursors. While a
		// cursor's block is undecoded its cur is a lower bound, which can
		// only make the matching set larger — an overestimate that costs a
		// decode, never a wrong skip.
		pivot := ordExhausted
		for i := range cursors {
			if cursors[i].cur < pivot {
				pivot = cursors[i].cur
			}
		}
		if pivot == ordExhausted {
			break
		}

		// Upper-bound the score any document in the matching range can
		// reach: the sum of matching cursors' current block bounds.
		ub := 0.0
		for i := range cursors {
			if cursors[i].cur == pivot {
				ub += cursors[i].blockBound(seg, k1, b)
			}
		}
		if heap.full() && ub*boundSlack < heap.worst() {
			// No document up to the matching blocks' horizon can enter the
			// top-k: every posting in [pivot, skipEnd] lives in a matching
			// cursor's current block (non-matching cursors resume strictly
			// after skipEnd), so its score is bounded by ub.
			skipEnd := ordExhausted
			for i := range cursors {
				c := &cursors[i]
				if c.cur == pivot {
					last := int64(seg.blocks[int(seg.tmeta[c.term].firstBlock)+c.blk].lastOrd)
					if last < skipEnd {
						skipEnd = last
					}
				} else if c.cur != ordExhausted && c.cur-1 < skipEnd {
					skipEnd = c.cur - 1
				}
			}
			for i := range cursors {
				if cursors[i].cur <= skipEnd {
					cursors[i].advanceTo(seg, skipEnd+1, sc)
				}
			}
			continue
		}

		// Survivor: decode any matching cursors still lazy. A decode can
		// push a cursor's cur past pivot (its lower bound was optimistic),
		// invalidating the matching set — recompute the pivot then.
		moved := false
		for i := range cursors {
			c := &cursors[i]
			if c.cur == pivot && !c.decoded {
				if err := c.decode(seg, sc); err != nil {
					return err
				}
				if c.cur != pivot {
					moved = true
				}
			}
		}
		if moved {
			continue
		}

		// Exact rescore in token order — cursors were built in token order,
		// so this sum is the same float64 sequence the exhaustive scorer
		// produces for this document.
		dl := float64(seg.docLens[pivot])
		score := 0.0
		for i := range cursors {
			c := &cursors[i]
			if c.cur == pivot {
				score += bm25Term(c.idf, float64(c.tfs[c.pos]), dl, avgLen, k1, b)
			}
		}
		heap.offer(seg.docIDs[pivot], score)
		for i := range cursors {
			if cursors[i].cur == pivot {
				cursors[i].next(seg)
			}
		}
	}
	return nil
}
