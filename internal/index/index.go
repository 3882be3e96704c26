// Package index implements the lake's nearest-neighbour indexer (paper §5):
// the exact flat index the lake serves from — one two-phase read path
// (flat.go) over rows in RAM or in an on-disk segment, optionally ranked
// first by an int8 or product-quantized tier — plus a Hierarchical Navigable
// Small World (HNSW) graph, the sublinear approximate search the experiments
// measure against it.
//
// Every implementation satisfies Index, so experiments can swap them, and
// all are safe for concurrent use.
//
// The read path is engineered for allocation-free, cache-friendly scans:
// vectors live in one contiguous backing array per index (an offset per node
// instead of a pointer chase per candidate), Euclidean norms are precomputed
// at insert so a Cosine distance costs a single dot product, top-k selection
// is a bounded max-heap (O(n log k), zero per-candidate allocation), and the
// HNSW per-search scratch — the visited set and both beam heaps — is pooled
// and generation-stamped rather than reallocated per query.
package index

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"modellake/internal/obs"
	"modellake/internal/tensor"
	"modellake/internal/xrand"
)

// ANN metrics, labelled by index kind. candidates-scanned divided by
// searches gives the effective probe width: |lake| for the flat scan versus
// the beam-bounded visit count for HNSW — the sublinearity claim of paper §5
// read straight off the counters. The counters are resolved once at package
// init: a registry lookup per search would put map traffic and label
// rendering on the zero-alloc hot path.
var (
	flatKind  = annCounters("flat")
	quantKind = annCounters("flat_quant")
	pqKind    = annCounters("flat_pq")
	diskKind  = annCounters("disk_flat")
	hnswKind  = annCounters("hnsw")
)

// annKind is the counter pair one index kind reports under.
type annKind struct{ searches, candidates *obs.Counter }

func annCounters(kind string) annKind {
	return annKind{
		searches:   obs.Default().Counter("ann_searches_total", obs.L("kind", kind)),
		candidates: obs.Default().Counter("ann_candidates_scanned_total", obs.L("kind", kind)),
	}
}

// Sentinel errors.
var (
	ErrDuplicateID = errors.New("index: id already present")
	ErrBadVector   = errors.New("index: bad vector")
)

// Metric selects the distance function.
type Metric int

// Supported metrics.
const (
	L2 Metric = iota
	Cosine
)

// Distance returns the metric's distance between a and b (lower is closer).
// Cosine distance is 1 − cosine similarity.
func (m Metric) Distance(a, b tensor.Vector) float64 {
	switch m {
	case Cosine:
		return 1 - tensor.CosineSimilarity(a, b)
	default:
		return tensor.L2Distance(a, b)
	}
}

// queryNorm returns the query-side norm the metric needs per search: the
// Euclidean norm for Cosine (computed once, not once per candidate), unused
// zero for L2.
func (m Metric) queryNorm(q tensor.Vector) float64 {
	if m == Cosine {
		return q.Norm()
	}
	return 0
}

// distFlat is the flattened-storage distance: q against a stored row whose
// norm was precomputed at insert. The arithmetic — operand order included —
// matches Metric.Distance exactly, so results are bitwise identical to the
// clone-per-node layout this replaced.
func (m Metric) distFlat(q tensor.Vector, qNorm float64, row []float64, rowNorm float64) float64 {
	if m == Cosine {
		return m.fromKernel(tensor.DotKernel(q, row), qNorm, rowNorm)
	}
	return m.fromKernel(tensor.SquaredL2Kernel(q, row), qNorm, rowNorm)
}

// fromKernel finishes a distance from its kernel value — q·row under Cosine,
// ‖q−row‖² under L2. It is the one copy of that arithmetic: the per-row path
// (distFlat) and the block scan (blockDists, whose kernel values come from
// tensor.DotRows / SquaredL2Rows) both end here, so they cannot drift apart.
func (m Metric) fromKernel(kv, qNorm, rowNorm float64) float64 {
	if m == Cosine {
		if qNorm == 0 || rowNorm == 0 {
			return 1
		}
		return 1 - kv/(qNorm*rowNorm)
	}
	return math.Sqrt(kv)
}

// Result is one search hit.
type Result struct {
	ID       string
	Distance float64
}

// Index is a nearest-neighbour index over string-identified vectors.
type Index interface {
	// Add inserts a vector under id.
	Add(id string, v tensor.Vector) error
	// Search returns the k nearest stored vectors to q, closest first. Long
	// scans honor ctx cancellation (checked about every thousand
	// candidates); nil ctx means no cancellation.
	Search(ctx context.Context, q tensor.Vector, k int) ([]Result, error)
	// Len returns the number of stored vectors.
	Len() int
}

// ctxCheckInterval is how many candidates a scan examines between
// cancellation checks — frequent enough that a timed-out request stops
// promptly, rare enough to stay invisible in the per-candidate cost.
const ctxCheckInterval = 1024

func validateVector(v tensor.Vector, wantDim int) error {
	if len(v) == 0 {
		return fmt.Errorf("%w: empty", ErrBadVector)
	}
	if wantDim != 0 && len(v) != wantDim {
		return fmt.Errorf("%w: dim %d != index dim %d", ErrBadVector, len(v), wantDim)
	}
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("%w: non-finite component", ErrBadVector)
		}
	}
	return nil
}

// candidate is a node index paired with its distance to the current query.
type candidate struct {
	idx  int
	dist float64
}

// topK selects the k smallest candidates under the total order (distance,
// then ID when ids is set, else node index). It is a max-heap holding at most
// k elements with the worst at the root, so a full scan costs O(n log k) and
// allocates nothing per candidate. Instances are pooled by their owners.
type topK struct {
	k   int
	ids []string // tie-break by ids[idx] when non-nil
	xs  []candidate
}

// worse reports whether a ranks strictly after b (farther, or tied and
// later in the tie-break order).
func (t *topK) worse(a, b candidate) bool {
	if a.dist != b.dist {
		return a.dist > b.dist
	}
	if t.ids != nil {
		return t.ids[a.idx] > t.ids[b.idx]
	}
	return a.idx > b.idx
}

func (t *topK) reset(k int, ids []string) {
	t.k = k
	t.ids = ids
	t.xs = t.xs[:0]
}

// release drops references that would otherwise pin the owner's data while
// the scratch sits in a pool.
func (t *topK) release() { t.ids = nil }

// offer considers one candidate, keeping the k best seen so far.
func (t *topK) offer(c candidate) {
	if len(t.xs) < t.k {
		t.xs = append(t.xs, c)
		i := len(t.xs) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !t.worse(t.xs[i], t.xs[parent]) {
				break
			}
			t.xs[i], t.xs[parent] = t.xs[parent], t.xs[i]
			i = parent
		}
		return
	}
	if !t.worse(t.xs[0], c) {
		return // current worst still beats c
	}
	t.xs[0] = c
	t.siftDown(0, len(t.xs))
}

func (t *topK) siftDown(i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && t.worse(t.xs[l], t.xs[worst]) {
			worst = l
		}
		if r < n && t.worse(t.xs[r], t.xs[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.xs[i], t.xs[worst] = t.xs[worst], t.xs[i]
		i = worst
	}
}

// extractAscending heap-sorts the selection in place and returns it ordered
// closest first. The topK must be reset before reuse.
func (t *topK) extractAscending() []candidate {
	for n := len(t.xs); n > 1; n-- {
		t.xs[0], t.xs[n-1] = t.xs[n-1], t.xs[0]
		t.siftDown(0, n-1)
	}
	return t.xs
}

// MemBytes estimates the heap retained by the graph: vectors, norms, ID
// strings, and per-node link lists.
func (h *HNSW) MemBytes() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	n := int64(len(h.vecData))*8 + int64(len(h.norms))*8
	for _, node := range h.nodes {
		n += int64(len(node.id)) + memStrHeader
		for _, level := range node.links {
			n += int64(len(level)) * 4
		}
	}
	for id := range h.byID {
		n += int64(len(id)) + memStrHeader + 8 + memMapEntry
	}
	return n
}

// memMapEntry/memStrHeader are the rough per-entry accounting heuristics
// shared by every MemBytes estimator in the repo.
const (
	memMapEntry  = 48
	memStrHeader = 16
)

func idSliceBytes(ids []string) int64 {
	n := int64(len(ids)) * memStrHeader
	for _, id := range ids {
		n += int64(len(id))
	}
	return n
}

// HNSWConfig tunes the graph. Zero values select sensible defaults.
type HNSWConfig struct {
	M              int    // max links per node on upper layers (default 16)
	EfConstruction int    // candidate pool during insertion (default 200)
	EfSearch       int    // candidate pool during search (default 64)
	Seed           uint64 // level-assignment randomness
}

func (c HNSWConfig) withDefaults() HNSWConfig {
	if c.M <= 0 {
		c.M = 16
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = 200
	}
	if c.EfSearch <= 0 {
		c.EfSearch = 64
	}
	return c
}

// hnswNode holds a node's identity and adjacency; its vector lives at
// vecData[idx*dim : (idx+1)*dim] in the owning index.
type hnswNode struct {
	id    string
	links [][]int32 // links[level] = neighbour node indices
}

// HNSW is the approximate index.
type HNSW struct {
	metric Metric
	cfg    HNSWConfig
	mL     float64

	mu       sync.RWMutex
	nodes    []hnswNode
	vecData  []float64 // flattened node vectors, row-major
	norms    []float64 // precomputed Euclidean norms, aligned with nodes
	byID     map[string]int
	entry    int
	maxLevel int
	rng      *xrand.RNG
	dim      int

	scratch sync.Pool // *searchScratch
}

// NewHNSW returns an empty HNSW index.
func NewHNSW(metric Metric, cfg HNSWConfig) *HNSW {
	cfg = cfg.withDefaults()
	h := &HNSW{
		metric: metric,
		cfg:    cfg,
		mL:     1 / math.Log(float64(cfg.M)),
		byID:   make(map[string]int),
		entry:  -1,
		rng:    xrand.New(cfg.Seed),
	}
	h.scratch.New = func() any { return new(searchScratch) }
	return h
}

// Len implements Index.
func (h *HNSW) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.nodes)
}

func (h *HNSW) randomLevel() int {
	u := h.rng.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return int(-math.Log(u) * h.mL)
}

// vec returns node i's vector as a view into the flat backing array.
func (h *HNSW) vec(i int) tensor.Vector {
	return tensor.Vector(h.vecData[i*h.dim : (i+1)*h.dim])
}

// distTo computes the metric distance from a query (with its precomputed
// query-side norm) to stored node i.
func (h *HNSW) distTo(q tensor.Vector, qNorm float64, i int) float64 {
	return h.metric.distFlat(q, qNorm, h.vecData[i*h.dim:(i+1)*h.dim], h.norms[i])
}

// searchScratch is the pooled per-search state: a generation-stamped visited
// set (one uint32 per node beats a map[int]struct{} by an order of magnitude
// and needs no clearing between searches) plus the two beam heaps and a
// bounded selector for link shrinking.
type searchScratch struct {
	visited []uint32
	gen     uint32
	cands   candHeap // min-heap: closest first
	results candHeap // max-heap: worst at root, popped when over ef
	sel     topK     // bounded selection workspace for shrinkLinks
}

// begin prepares the scratch for a search over n nodes.
func (sc *searchScratch) begin(n int) {
	if len(sc.visited) < n {
		sc.visited = append(sc.visited, make([]uint32, n-len(sc.visited))...)
	}
	sc.gen++
	if sc.gen == 0 { // wrapped: stale stamps could collide, so clear once
		for i := range sc.visited {
			sc.visited[i] = 0
		}
		sc.gen = 1
	}
	sc.cands.xs = sc.cands.xs[:0]
	sc.results.xs = sc.results.xs[:0]
}

// visit marks node i visited, reporting whether this is the first visit of
// the current search.
func (sc *searchScratch) visit(i int) bool {
	if sc.visited[i] == sc.gen {
		return false
	}
	sc.visited[i] = sc.gen
	return true
}

// Add implements Index.
func (h *HNSW) Add(id string, v tensor.Vector) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := validateVector(v, h.dim); err != nil {
		return err
	}
	if _, ok := h.byID[id]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	if h.dim == 0 {
		h.dim = len(v)
	}
	level := h.randomLevel()
	idx := len(h.nodes)
	h.nodes = append(h.nodes, hnswNode{id: id, links: make([][]int32, level+1)})
	h.vecData = append(h.vecData, v...)
	h.norms = append(h.norms, v.Norm())
	h.byID[id] = idx

	if h.entry < 0 {
		h.entry = idx
		h.maxLevel = level
		return nil
	}

	// v may alias caller memory the caller mutates later; from here on use
	// the index's own copy, exactly as searches will.
	q := h.vec(idx)
	qNorm := h.metric.queryNorm(q)
	cur := h.entry
	curDist := h.distTo(q, qNorm, cur)
	// Greedy descent through layers above the new node's level.
	for l := h.maxLevel; l > level; l-- {
		cur, curDist = h.greedyStep(q, qNorm, cur, curDist, l)
	}
	// Insert at each level from min(level, maxLevel) down to 0.
	startLevel := level
	if startLevel > h.maxLevel {
		startLevel = h.maxLevel
	}
	sc := h.scratch.Get().(*searchScratch)
	ep := []candidate{{idx: cur, dist: curDist}}
	for l := startLevel; l >= 0; l-- {
		found, _ := h.searchLayer(sc, q, qNorm, ep, h.cfg.EfConstruction, l)
		maxConn := h.cfg.M
		if l == 0 {
			maxConn = 2 * h.cfg.M
		}
		neighbours := found
		if len(neighbours) > h.cfg.M {
			neighbours = neighbours[:h.cfg.M]
		}
		for _, nb := range neighbours {
			h.nodes[idx].links[l] = append(h.nodes[idx].links[l], int32(nb.idx))
			h.nodes[nb.idx].links[l] = append(h.nodes[nb.idx].links[l], int32(idx))
			if len(h.nodes[nb.idx].links[l]) > maxConn {
				h.shrinkLinks(sc, nb.idx, l, maxConn)
			}
		}
		ep = found
	}
	h.scratch.Put(sc)
	if level > h.maxLevel {
		h.maxLevel = level
		h.entry = idx
	}
	return nil
}

// greedyStep walks to the closest neighbour of cur at layer l until no
// improvement, returning the final node and its distance.
func (h *HNSW) greedyStep(q tensor.Vector, qNorm float64, cur int, curDist float64, l int) (int, float64) {
	for {
		if l >= len(h.nodes[cur].links) {
			return cur, curDist
		}
		improved := false
		for _, nb := range h.nodes[cur].links[l] {
			d := h.distTo(q, qNorm, int(nb))
			if d < curDist {
				cur, curDist = int(nb), d
				improved = true
			}
		}
		if !improved {
			return cur, curDist
		}
	}
}

// searchLayer is the standard HNSW beam search at one layer. It returns up
// to ef candidates sorted by ascending distance, plus the number of distinct
// nodes visited (the probe count Search reports to the metrics). All working
// state lives in sc; only the returned slice is allocated.
func (h *HNSW) searchLayer(sc *searchScratch, q tensor.Vector, qNorm float64, entryPoints []candidate, ef, level int) ([]candidate, int) {
	sc.begin(len(h.nodes))
	visited := 0
	for _, ep := range entryPoints {
		if !sc.visit(ep.idx) {
			continue
		}
		visited++
		sc.cands.push(ep, false)
		sc.results.push(ep, true)
	}
	for sc.cands.len() > 0 {
		c := sc.cands.pop(false)
		if sc.results.len() >= ef && c.dist > sc.results.peek().dist {
			break
		}
		if level >= len(h.nodes[c.idx].links) {
			continue
		}
		for _, nb := range h.nodes[c.idx].links[level] {
			ni := int(nb)
			if !sc.visit(ni) {
				continue
			}
			visited++
			d := h.distTo(q, qNorm, ni)
			if sc.results.len() < ef || d < sc.results.peek().dist {
				sc.cands.push(candidate{idx: ni, dist: d}, false)
				sc.results.push(candidate{idx: ni, dist: d}, true)
				if sc.results.len() > ef {
					sc.results.pop(true)
				}
			}
		}
	}
	out := make([]candidate, sc.results.len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = sc.results.pop(true)
	}
	return out, visited
}

// shrinkLinks truncates a node's neighbour list at a level to the maxConn
// closest neighbours via bounded top-k selection — O(n log maxConn), no
// allocation, no sort — writing the survivors back in ascending distance
// order (ties broken by neighbour index).
func (h *HNSW) shrinkLinks(sc *searchScratch, idx, level, maxConn int) {
	links := h.nodes[idx].links[level]
	if len(links) <= maxConn {
		return
	}
	q := h.vec(idx)
	qNorm := h.metric.queryNorm(q)
	sc.sel.reset(maxConn, nil)
	for _, nb := range links {
		sc.sel.offer(candidate{idx: int(nb), dist: h.distTo(q, qNorm, int(nb))})
	}
	kept := sc.sel.extractAscending()
	links = links[:len(kept)]
	for i, c := range kept {
		links[i] = int32(c.idx)
	}
	h.nodes[idx].links[level] = links
}

// Search implements Index.
func (h *HNSW) Search(ctx context.Context, q tensor.Vector, k int) ([]Result, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if len(h.nodes) == 0 {
		return nil, nil
	}
	if err := validateVector(q, h.dim); err != nil {
		return nil, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	qNorm := h.metric.queryNorm(q)
	cur := h.entry
	curDist := h.distTo(q, qNorm, cur)
	for l := h.maxLevel; l > 0; l-- {
		cur, curDist = h.greedyStep(q, qNorm, cur, curDist, l)
	}
	ef := h.cfg.EfSearch
	if ef < k {
		ef = k
	}
	sc := h.scratch.Get().(*searchScratch)
	found, visited := h.searchLayer(sc, q, qNorm, []candidate{{idx: cur, dist: curDist}}, ef, 0)
	h.scratch.Put(sc)
	hnswKind.searches.Inc()
	hnswKind.candidates.Add(uint64(visited))
	if k > len(found) {
		k = len(found)
	}
	if k < 0 {
		k = 0
	}
	out := make([]Result, k)
	for i := 0; i < k; i++ {
		out[i] = Result{ID: h.nodes[found[i].idx].id, Distance: found[i].dist}
	}
	return out, nil
}

// candHeap is a binary heap over candidates ordered by distance. The max
// flag on each operation selects the comparison direction (false = min-heap,
// true = max-heap) so one reusable backing slice serves both beam heaps
// without a per-search comparator closure.
type candHeap struct {
	xs []candidate
}

func (h *candHeap) len() int        { return len(h.xs) }
func (h *candHeap) peek() candidate { return h.xs[0] }

func (h *candHeap) before(a, b candidate, max bool) bool {
	if max {
		return a.dist > b.dist
	}
	return a.dist < b.dist
}

func (h *candHeap) push(c candidate, max bool) {
	h.xs = append(h.xs, c)
	i := len(h.xs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(h.xs[i], h.xs[parent], max) {
			break
		}
		h.xs[i], h.xs[parent] = h.xs[parent], h.xs[i]
		i = parent
	}
}

func (h *candHeap) pop(max bool) candidate {
	top := h.xs[0]
	last := len(h.xs) - 1
	h.xs[0] = h.xs[last]
	h.xs = h.xs[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		first := i
		if l < len(h.xs) && h.before(h.xs[l], h.xs[first], max) {
			first = l
		}
		if r < len(h.xs) && h.before(h.xs[r], h.xs[first], max) {
			first = r
		}
		if first == i {
			break
		}
		h.xs[i], h.xs[first] = h.xs[first], h.xs[i]
		i = first
	}
	return top
}
