package search

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"

	"modellake/internal/data"
)

// This file implements the immutable postings segment behind the sharded
// keyword index: a compact, mergeable replacement for the nested
// map[token]map[docID]tf tier. A segment holds a shard's documents as
//
//   - a sorted document table (docID, token length) — the ordinal of a
//     document in this table is its docID ord, so ordinal order is exactly
//     ID order;
//   - a sorted terms dictionary, each term owning a run of blocks;
//   - per-term postings split into blocks of up to postingsBlockSize
//     entries, each block delta/varint-encoded (ord gaps, then raw tf) into
//     one byte slice and carrying metadata (last ord, max tf, count, byte
//     extent) that the block-max scorer reads without decoding the block.
//
// Segments are RAM state only: a reopened lake builds them from its cards.

// postingsBlockSize is the maximum number of postings per block. 128 keeps
// decode scratch small (two 512-byte arrays) while giving block-max pruning
// enough granularity to skip meaningful work.
const postingsBlockSize = 128

// ErrBadPostings marks a postings block whose bytes contradict its
// metadata. The decoder checks every block it reads, so a bug in the encoder
// surfaces as this error instead of as a wrong ranking.
var ErrBadPostings = errors.New("search: bad postings block")

// blockMeta describes one encoded postings block without decoding it.
type blockMeta struct {
	lastOrd uint32 // ordinal of the last posting in the block
	maxTF   uint32 // maximum term frequency in the block (block-max bound input)
	count   uint32 // postings in the block (1..postingsBlockSize)
	off     int64  // byte offset of the encoded block within the blob
	length  int32  // encoded byte length
}

// termMeta is one dictionary entry: the term's document frequency and its
// run of blocks.
type termMeta struct {
	df         uint32
	firstBlock int32
	nBlocks    int32
}

// PostingsSegment is an immutable, compact inverted index over one keyword
// shard's documents. It is built by merging the shard's live map tier with
// the previous segment and scored by the block-max pruned scorer in
// blockmax.go.
type PostingsSegment struct {
	docIDs   []string // sorted ascending; index == ordinal
	docLens  []uint32 // token count per document
	totalLen int64    // sum of docLens
	terms    []string // sorted ascending
	tmeta    []termMeta
	blocks   []blockMeta
	blob     []byte // every block's encoded bytes, at blockMeta.off
}

// DocCount returns the number of documents in the segment.
func (seg *PostingsSegment) DocCount() int { return len(seg.docIDs) }

// contains reports whether the segment holds docID.
func (seg *PostingsSegment) contains(docID string) bool {
	i := sort.SearchStrings(seg.docIDs, docID)
	return i < len(seg.docIDs) && seg.docIDs[i] == docID
}

// termIndex locates tok in the dictionary.
func (seg *PostingsSegment) termIndex(tok string) (int, bool) {
	i := sort.SearchStrings(seg.terms, tok)
	if i < len(seg.terms) && seg.terms[i] == tok {
		return i, true
	}
	return -1, false
}

// df returns tok's document frequency within the segment (0 if absent).
func (seg *PostingsSegment) df(tok string) int {
	if i, ok := seg.termIndex(tok); ok {
		return int(seg.tmeta[i].df)
	}
	return 0
}

// prevLastOrd returns the delta base for block blk of term t: the last
// ordinal of the preceding block, or -1 at the start of the term's run.
func (seg *PostingsSegment) prevLastOrd(t, blk int) int64 {
	if blk == 0 {
		return -1
	}
	return int64(seg.blocks[int(seg.tmeta[t].firstBlock)+blk-1].lastOrd)
}

// decodeBlock decodes block blk of term t into ords/tfs (each sized at
// least blockMeta.count) and returns the posting count.
func (seg *PostingsSegment) decodeBlock(t, blk int, ords, tfs []uint32) (int, error) {
	bm := seg.blocks[int(seg.tmeta[t].firstBlock)+blk]
	end := bm.off + int64(bm.length)
	if bm.off < 0 || end > int64(len(seg.blob)) {
		return 0, fmt.Errorf("%w: block extent [%d,%d) outside blob of %d bytes", ErrBadPostings, bm.off, end, len(seg.blob))
	}
	raw := seg.blob[bm.off:end]
	prev := seg.prevLastOrd(t, blk)
	pos := 0
	for i := 0; i < int(bm.count); i++ {
		gap, n := binary.Uvarint(raw[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated ord gap in block", ErrBadPostings)
		}
		pos += n
		tf, n := binary.Uvarint(raw[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: truncated tf in block", ErrBadPostings)
		}
		pos += n
		prev += int64(gap)
		if prev >= int64(len(seg.docIDs)) || tf == 0 {
			return 0, fmt.Errorf("%w: posting ord %d / tf %d out of range", ErrBadPostings, prev, tf)
		}
		ords[i] = uint32(prev)
		tfs[i] = uint32(tf)
	}
	if pos != len(raw) {
		return 0, fmt.Errorf("%w: %d trailing bytes in block", ErrBadPostings, len(raw)-pos)
	}
	if uint32(prev) != bm.lastOrd {
		return 0, fmt.Errorf("%w: block last ord %d, metadata says %d", ErrBadPostings, prev, bm.lastOrd)
	}
	return int(bm.count), nil
}

// forEachPosting decodes every posting of term t in ordinal order — the
// segment-to-map path used by merges and demotes.
func (seg *PostingsSegment) forEachPosting(t int, fn func(ord, tf uint32)) error {
	var ords, tfs [postingsBlockSize]uint32
	tm := seg.tmeta[t]
	for blk := 0; blk < int(tm.nBlocks); blk++ {
		n, err := seg.decodeBlock(t, blk, ords[:], tfs[:])
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			fn(ords[i], tfs[i])
		}
	}
	return nil
}

// memBytes estimates the heap retained by the segment: the doc table,
// dictionary, block metadata and the block blob.
func (seg *PostingsSegment) memBytes() int64 {
	if seg == nil {
		return 0
	}
	const strHeader = 16 // string header per entry
	n := int64(0)
	for _, id := range seg.docIDs {
		n += int64(len(id)) + strHeader
	}
	n += int64(len(seg.docLens)) * 4
	for _, t := range seg.terms {
		n += int64(len(t)) + strHeader
	}
	n += int64(len(seg.tmeta))*12 + int64(len(seg.blocks))*24
	n += int64(len(seg.blob))
	return n
}

// segmentBuilder accumulates a segment in memory. Terms must be added in
// sorted order with postings in ascending ordinal order.
type segmentBuilder struct {
	seg PostingsSegment
	tmp [2 * binary.MaxVarintLen64]byte
}

func (b *segmentBuilder) addTerm(term string, ords, tfs []uint32) {
	tm := termMeta{
		df:         uint32(len(ords)),
		firstBlock: int32(len(b.seg.blocks)),
	}
	prev := int64(-1)
	for start := 0; start < len(ords); start += postingsBlockSize {
		end := start + postingsBlockSize
		if end > len(ords) {
			end = len(ords)
		}
		bm := blockMeta{off: int64(len(b.seg.blob)), count: uint32(end - start)}
		for i := start; i < end; i++ {
			gap := int64(ords[i]) - prev
			prev = int64(ords[i])
			n := binary.PutUvarint(b.tmp[:], uint64(gap))
			n += binary.PutUvarint(b.tmp[n:], uint64(tfs[i]))
			b.seg.blob = append(b.seg.blob, b.tmp[:n]...)
			if tfs[i] > bm.maxTF {
				bm.maxTF = tfs[i]
			}
		}
		bm.lastOrd = uint32(prev)
		bm.length = int32(int64(len(b.seg.blob)) - bm.off)
		b.seg.blocks = append(b.seg.blocks, bm)
		tm.nBlocks++
	}
	b.seg.terms = append(b.seg.terms, term)
	b.seg.tmeta = append(b.seg.tmeta, tm)
}

// postingsRun is a batch of documents in the form buildSegment consumes:
// a document table sorted by ID (index == local ordinal), a sorted terms
// list, and per term its postings in ascending local ordinal. Both producers
// — runFromMaps for a shard's live map tier, runFromDocs for a bulk load —
// reduce to this shape, so there is one merge into the segment format.
type postingsRun struct {
	ids   []string
	lens  []uint32
	terms []string
	start []int // terms[t] owns ords/tfs[start[t]:start[t+1]]
	ords  []uint32
	tfs   []uint32
}

// runFromMaps flattens a shard's map tier into a run.
func runFromMaps(postings map[string]map[string]int, docLens map[string]int) *postingsRun {
	r := &postingsRun{
		ids:   make([]string, 0, len(docLens)),
		lens:  make([]uint32, len(docLens)),
		terms: make([]string, 0, len(postings)),
		start: make([]int, 1, len(postings)+1),
	}
	for id := range docLens {
		r.ids = append(r.ids, id)
	}
	sort.Strings(r.ids)
	ord := make(map[string]uint32, len(r.ids))
	for i, id := range r.ids {
		ord[id] = uint32(i)
		r.lens[i] = uint32(docLens[id])
	}
	for tok := range postings {
		r.terms = append(r.terms, tok)
	}
	sort.Strings(r.terms)
	for _, tok := range r.terms {
		from := len(r.ords)
		for id, tf := range postings[tok] {
			r.ords = append(r.ords, ord[id])
			r.tfs = append(r.tfs, uint32(tf))
		}
		sort.Sort(&postingsByOrd{r.ords[from:], r.tfs[from:]})
		r.start = append(r.start, len(r.ords))
	}
	return r
}

// runFromDocs tokenizes a batch of documents straight into a run, with no
// nested maps in between. docs must be sorted by ID without duplicates.
// Walking the documents in ordinal order means every term's postings are
// emitted already ascending, so one counting sort by term groups them.
func runFromDocs(docs []Doc) *postingsRun {
	r := &postingsRun{
		ids:  make([]string, len(docs)),
		lens: make([]uint32, len(docs)),
	}
	type rawPosting struct{ term, ord, tf uint32 }
	termID := map[string]uint32{}
	var names []string // term ID -> term
	var dfs []int      // term ID -> document frequency
	var raw []rawPosting
	for d, doc := range docs {
		toks := data.Tokenize(doc.Text)
		r.ids[d], r.lens[d] = doc.ID, uint32(len(toks))
		sort.Strings(toks)
		for i := 0; i < len(toks); {
			j := i + 1
			for j < len(toks) && toks[j] == toks[i] {
				j++
			}
			id, ok := termID[toks[i]]
			if !ok {
				// A token is a substring of the lower-cased text: the
				// dictionary keeps a copy, not the whole text.
				name := strings.Clone(toks[i])
				id = uint32(len(names))
				termID[name] = id
				names = append(names, name)
				dfs = append(dfs, 0)
			}
			dfs[id]++
			raw = append(raw, rawPosting{id, uint32(d), uint32(j - i)})
			i = j
		}
	}
	// Rank the terms by name, then scatter the postings into rank order.
	byName := make([]uint32, len(names))
	for i := range byName {
		byName[i] = uint32(i)
	}
	sort.Slice(byName, func(a, b int) bool { return names[byName[a]] < names[byName[b]] })
	r.terms = make([]string, len(names))
	r.start = make([]int, len(names)+1)
	next := make([]int, len(names)) // term ID -> next free slot
	for rank, id := range byName {
		r.terms[rank] = names[id]
		next[id] = r.start[rank]
		r.start[rank+1] = r.start[rank] + dfs[id]
	}
	r.ords = make([]uint32, len(raw))
	r.tfs = make([]uint32, len(raw))
	for _, p := range raw {
		r.ords[next[p.term]], r.tfs[next[p.term]] = p.ord, p.tf
		next[p.term]++
	}
	return r
}

// buildSegment merges a run of fresh documents with the shard's previous
// segment (nil when there is none) into a fresh in-RAM segment. The two hold
// disjoint document sets — that invariant is what keeps per-term document
// frequencies a simple sum — and both are sorted by ID, so the merged
// ordinals are monotone in each source's and every step is a two-way merge.
// A block of the old segment that fails to decode aborts the build with no
// state changed.
func buildSegment(run *postingsRun, old *PostingsSegment) (*PostingsSegment, error) {
	if old == nil {
		old = &PostingsSegment{}
	}
	// Document table: sorted union. Ordinal == sorted rank.
	n := len(run.ids) + len(old.docIDs)
	b := &segmentBuilder{}
	b.seg.docIDs = make([]string, 0, n)
	b.seg.docLens = make([]uint32, 0, n)
	b.seg.totalLen = old.totalLen
	runOrd := make([]uint32, len(run.ids))    // run ordinal -> new ordinal
	oldOrd := make([]uint32, len(old.docIDs)) // old ordinal -> new ordinal
	for i, j := 0, 0; i < len(run.ids) || j < len(old.docIDs); {
		switch {
		case j == len(old.docIDs) || (i < len(run.ids) && run.ids[i] < old.docIDs[j]):
			runOrd[i] = uint32(len(b.seg.docIDs))
			b.seg.docIDs = append(b.seg.docIDs, run.ids[i])
			b.seg.docLens = append(b.seg.docLens, run.lens[i])
			b.seg.totalLen += int64(run.lens[i])
			i++
		case i == len(run.ids) || old.docIDs[j] < run.ids[i]:
			oldOrd[j] = uint32(len(b.seg.docIDs))
			b.seg.docIDs = append(b.seg.docIDs, old.docIDs[j])
			b.seg.docLens = append(b.seg.docLens, old.docLens[j])
			j++
		default:
			return nil, fmt.Errorf("search: document %q present in both postings tiers", run.ids[i])
		}
	}

	// Terms: sorted union; a term in both sources interleaves its postings.
	var ords, tfs []uint32
	for t, ot := 0, 0; t < len(run.terms) || ot < len(old.terms); {
		var term string
		switch {
		case ot == len(old.terms):
			term = run.terms[t]
		case t == len(run.terms):
			term = old.terms[ot]
		default:
			term = min(run.terms[t], old.terms[ot])
		}
		ords, tfs = ords[:0], tfs[:0]
		p, end := 0, 0 // the run's postings of term still to emit
		if t < len(run.terms) && run.terms[t] == term {
			p, end = run.start[t], run.start[t+1]
			t++
		}
		if ot < len(old.terms) && old.terms[ot] == term {
			if err := old.forEachPosting(ot, func(o, tf uint32) {
				for ; p < end && runOrd[run.ords[p]] < oldOrd[o]; p++ {
					ords, tfs = append(ords, runOrd[run.ords[p]]), append(tfs, run.tfs[p])
				}
				ords, tfs = append(ords, oldOrd[o]), append(tfs, tf)
			}); err != nil {
				return nil, err
			}
			ot++
		}
		for ; p < end; p++ {
			ords, tfs = append(ords, runOrd[run.ords[p]]), append(tfs, run.tfs[p])
		}
		b.addTerm(term, ords, tfs)
	}
	return &b.seg, nil
}

// postingsByOrd sorts parallel (ord, tf) slices by ordinal.
type postingsByOrd struct{ ords, tfs []uint32 }

func (p *postingsByOrd) Len() int           { return len(p.ords) }
func (p *postingsByOrd) Less(i, j int) bool { return p.ords[i] < p.ords[j] }
func (p *postingsByOrd) Swap(i, j int) {
	p.ords[i], p.ords[j] = p.ords[j], p.ords[i]
	p.tfs[i], p.tfs[j] = p.tfs[j], p.tfs[i]
}
