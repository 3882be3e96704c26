package index

// The flat index core: one read path behind every exact index in the lake.
// Two orthogonal axes describe an index — where its full-precision rows live
// (RAM, or an on-disk MLVF1 segment followed by a RAM tail) and which
// approximate tier, if any, ranks them first (int8, PQ) — and one Search
// serves every combination: when a ready tier exists and k·rescoreFactor is
// below the population, the tier ranks all rows into a shortlist; otherwise
// every row is a candidate. Candidates are then rescored against the
// full-precision rows with the exact distFlat arithmetic into the
// (distance, ID) top-k, so every combination answers bitwise identically to
// the plain scan whenever the shortlist recalls the true top-k — and
// unconditionally when there is no shortlist.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"modellake/internal/fault"
	"modellake/internal/obs"
	"modellake/internal/tensor"
)

// spillFailures counts post-append maintenance failures inside Add — a tail
// spill or lazy PQ train that could not complete. The row is kept and the
// next Add retries, so this series is the only place such a failure shows.
var spillFailures = obs.Default().Counter("ann_segment_spill_failures_total")

var errClosed = errors.New("index: segment closed")

// rankTier is an approximate ranking tier mirroring the core's rows in RAM.
// It is not itself synchronized — the owning core's lock covers it. scan is
// called once per ctxCheckInterval block, so the per-row loop inside each
// implementation stays free of dynamic dispatch.
type rankTier interface {
	// ready reports whether the tier can rank yet (a PQ tier cannot until
	// its codebook trains).
	ready() bool
	// add encodes one more row. A tier that is not ready ignores it:
	// training encodes every row absorbed so far.
	add(row []float64)
	// prepare derives the per-query state (quantized query, ADC table) in sc.
	prepare(m Metric, q tensor.Vector, qNorm float64, sc *scratch)
	// scan offers rows [lo, hi) to sc.short by approximate distance.
	scan(m Metric, sc *scratch, qNorm float64, norms []float64, lo, hi int)
	memBytes() int64
}

// scratch is the pooled per-search state: the tier's query-side state, the
// shortlist selector (tie-break by row index — any deterministic order works,
// the rescore re-ranks), the final exact selector (tie-break by ID), the
// distance buffer of a block scan or a parallel rescore, and the pread window
// a segment row is decoded into.
type scratch struct {
	qq    quantQuery
	lut   []float64
	short topK
	sel   topK
	dists []float64
	buf   []byte
	row   []float64
}

// core is the state and behaviour Flat and DiskFlat share. Rows [0, segN)
// live in the segment file f and are pread on demand; rows [segN, n) live
// row-major in rows. A pure in-RAM index is the segN = 0, f = nil case.
type core struct {
	metric        Metric
	exact, ranked annKind // counters for searches without / with a shortlist
	rescoreFactor int
	spillRows     int       // tail rows that trigger compaction; <=0 never
	path          string    // published segment path, target of spills
	fs            *fault.FS // filesystem the segment IO routes through

	mu      sync.RWMutex
	closed  bool
	ids     []string
	byID    map[string]int32 // id → row ordinal; addID is the only writer
	norms   []float64
	dim     int
	tier    rankTier    // nil on a plain exact index
	rows    []float64   // full-precision rows past the segment, row-major
	f       *fault.File // open segment, pread source; nil in RAM
	segN    int         // rows in the on-disk segment
	dataOff int64
	idsCRC  uint64
	dataCRC uint64

	scratch sync.Pool // *scratch
}

func (c *core) init(metric Metric, exact, ranked annKind, tier rankTier, rescoreFactor int) {
	c.metric = metric
	c.exact, c.ranked = exact, ranked
	c.tier = tier
	c.rescoreFactor = rescoreFactor
	c.byID = make(map[string]int32)
	c.scratch.New = func() any { return new(scratch) }
}

// Flat is an exact index over rows held in RAM: one contiguous row-major
// backing array with precomputed norms, so a scan walks memory sequentially
// and a Cosine candidate costs exactly one dot product.
type Flat struct{ core }

// NewFlat returns an empty exact index.
func NewFlat(metric Metric) *Flat {
	f := new(Flat)
	f.init(metric, flatKind, flatKind, nil, 0)
	return f
}

// NewFlatQuantized returns an empty exact index that serves searches through
// the two-phase quantized read path: an int8 scan selects k·RescoreFactor
// candidates, then the exact flat arithmetic rescores them. Results are
// bitwise identical to NewFlat whenever the true top-k survives the
// shortlist cut; when the shortlist covers the whole index the search
// degenerates to the plain exact scan and identity is unconditional.
func NewFlatQuantized(metric Metric, cfg QuantConfig) *Flat {
	f := new(Flat)
	f.init(metric, flatKind, quantKind, &quantTier{}, cfg.withDefaults().RescoreFactor)
	return f
}

// NewFlatPQ returns an empty exact index that serves searches through the
// two-phase product-quantized read path: an ADC scan over one-byte-per-
// subspace codes selects k·RescoreFactor candidates, then the exact flat
// arithmetic rescores them. Results are bitwise identical to NewFlat
// whenever the true top-k survives the shortlist cut; when the shortlist
// covers the whole index — and, before PQTrainRows rows accumulate and the
// codebook trains, always — the search degenerates to the plain exact scan
// and identity is unconditional.
func NewFlatPQ(metric Metric, cfg QuantConfig) *Flat {
	if cfg.PQSubspaces <= 0 {
		cfg.PQSubspaces = DefaultPQSubspaces
	}
	cfg = cfg.withDefaults()
	f := new(Flat)
	f.init(metric, flatKind, pqKind, newPQTier(cfg), cfg.RescoreFactor)
	return f
}

// grow returns xs with room for n more elements.
func grow[T any](xs []T, n int) []T {
	if cap(xs)-len(xs) >= n {
		return xs
	}
	out := make([]T, len(xs), len(xs)+n)
	copy(out, xs)
	return out
}

// reserve pre-sizes the per-row bookkeeping for n more rows of dimension dim.
func (c *core) reserve(n, dim int) {
	c.ids = grow(c.ids, n)
	c.norms = grow(c.norms, n)
	if q, ok := c.tier.(*quantTier); ok {
		q.reserve(n, dim)
	}
}

// Reserve pre-sizes the backing storage for about n upcoming vectors of
// dimension dim, so a bulk load (lake rehydration) appends without repeated
// reallocation of the packed vector array. It is a pure capacity hint:
// contents and behaviour are unchanged, and n is not a cap.
func (f *Flat) Reserve(n, dim int) {
	if n <= 0 || dim <= 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reserve(n, dim)
	f.rows = grow(f.rows, n*dim)
}

// addID registers id as the next row's identity.
func (c *core) addID(id string) error {
	if _, ok := c.byID[id]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateID, id)
	}
	c.byID[id] = int32(len(c.ids))
	c.ids = append(c.ids, id)
	return nil
}

// absorb folds one validated row into the per-row state every source of rows
// shares — Add, a segment build, a segment open: its norm and its tier code.
func (c *core) absorb(row []float64) {
	c.norms = append(c.norms, tensor.Vector(row).Norm())
	if c.tier != nil {
		c.tier.add(row)
	}
}

// Add implements Index. The row joins the in-RAM rows (plus the ranking
// tier). On a disk-resident index those rows are the tail past the segment,
// and it does not grow without bound: once it reaches the spill threshold,
// segment + tail are compacted into a fresh on-disk segment. That
// maintenance — and the lazy PQ train — runs after the row is already
// indexed, so its failure is not an Add failure: the row stays searchable
// from the tail, the failure is counted, and the next Add retries.
func (c *core) Add(id string, v tensor.Vector) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errClosed
	}
	if err := validateVector(v, c.dim); err != nil {
		return err
	}
	if err := c.addID(id); err != nil {
		return err
	}
	if c.dim == 0 {
		c.dim = len(v)
	}
	c.rows = append(c.rows, v...)
	c.absorb(v)
	if err := c.maintain(); err != nil {
		spillFailures.Inc()
	}
	return nil
}

// maintain runs the work a grown population can trigger: training the PQ
// tier at its threshold, compacting a full tail into the segment. Both
// leave the index consistent when they fail.
func (c *core) maintain() error {
	if err := c.trainPQ(); err != nil {
		return err
	}
	return c.spill()
}

// rowAt materializes row i's full-precision vector: a view into the in-RAM
// rows, or a pread window into the segment decoded into sc's buffers (valid
// until the next rowAt on sc).
func (c *core) rowAt(sc *scratch, i int) ([]float64, error) {
	if i >= c.segN {
		j := (i - c.segN) * c.dim
		return c.rows[j : j+c.dim], nil
	}
	return c.preadRow(sc, i)
}

func (c *core) preadRow(sc *scratch, i int) ([]float64, error) {
	stride := c.dim * 8
	if cap(sc.buf) < stride {
		sc.buf = make([]byte, stride)
		sc.row = make([]float64, c.dim)
	}
	sc.buf = sc.buf[:stride]
	sc.row = sc.row[:c.dim]
	if _, err := c.f.ReadAt(sc.buf, c.dataOff+int64(i)*int64(stride)); err != nil {
		return nil, fmt.Errorf("index: segment read row %d: %w", i, err)
	}
	for j := range sc.row {
		sc.row[j] = math.Float64frombits(binary.LittleEndian.Uint64(sc.buf[j*8:]))
	}
	return sc.row, nil
}

// Vector returns a copy of the full-precision row stored under id — the
// bytes every distance against id is computed from — or ok=false when id is
// not indexed. A segment row is one pread of the file the open verified, the
// same trust the exact rescore reads with.
func (c *core) Vector(id string) (tensor.Vector, bool, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, false, errClosed
	}
	ord, ok := c.byID[id]
	if !ok {
		return nil, false, nil
	}
	i := int(ord)
	var sc *scratch // only a segment row needs the pread window
	if i < c.segN {
		sc = c.scratch.Get().(*scratch)
		defer c.scratch.Put(sc)
	}
	row, err := c.rowAt(sc, i)
	if err != nil {
		return nil, false, err
	}
	return tensor.Vector(row).Clone(), true, nil
}

// Search implements Index.
func (c *core) Search(ctx context.Context, q tensor.Vector, k int) ([]Result, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return nil, errClosed
	}
	n := len(c.ids)
	if n == 0 {
		return nil, nil
	}
	if err := validateVector(q, c.dim); err != nil {
		return nil, err
	}
	if k > n {
		k = n
	}
	if k <= 0 {
		c.exact.searches.Inc()
		return []Result{}, nil
	}
	qNorm := c.metric.queryNorm(q)
	sc := c.scratch.Get().(*scratch)
	out, err := c.search(ctx, sc, q, qNorm, k)
	sc.sel.release()
	c.scratch.Put(sc)
	return out, err
}

// search runs the two phases for 0 < k ≤ n. A shortlist that would cover
// every row cannot narrow anything, and a tier that is not ready cannot rank:
// both cases rescore every row, the plain exact scan.
func (c *core) search(ctx context.Context, sc *scratch, q tensor.Vector, qNorm float64, k int) ([]Result, error) {
	n, shortlist := len(c.ids), k*c.rescoreFactor
	sc.sel.reset(k, c.ids)
	var cands []candidate
	if c.tier != nil && c.tier.ready() && shortlist < n {
		c.ranked.searches.Inc()
		c.ranked.candidates.Add(uint64(n + shortlist))
		var err error
		if cands, err = c.shortlist(ctx, sc, q, qNorm, shortlist); err != nil {
			return nil, err
		}
	} else {
		c.exact.searches.Inc()
		c.exact.candidates.Add(uint64(n))
	}
	if err := c.rescore(ctx, sc, q, qNorm, cands); err != nil {
		return nil, err
	}
	sel := sc.sel.extractAscending()
	out := make([]Result, len(sel))
	for i, s := range sel {
		out[i] = Result{ID: c.ids[s.idx], Distance: s.dist}
	}
	return out, nil
}

// shortlist ranks every row through the tier and returns the size best by
// approximate distance.
func (c *core) shortlist(ctx context.Context, sc *scratch, q tensor.Vector, qNorm float64, size int) ([]candidate, error) {
	c.tier.prepare(c.metric, q, qNorm, sc)
	sc.short.reset(size, nil)
	n := len(c.ids)
	for lo := 0; lo < n; lo += ctxCheckInterval {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		c.tier.scan(c.metric, sc, qNorm, c.norms, lo, min(lo+ctxCheckInterval, n))
	}
	return sc.short.extractAscending(), nil
}

// Parallel exact-rescore tuning. Shortlists below the threshold rescore
// serially (the common case — zero goroutines, zero allocations); above it
// the distance computations fan out over a small bounded pool. Package
// variables rather than config so tests can force the parallel path at tiny
// shortlists.
var (
	rescoreParallelThreshold = 4096
	rescoreMaxWorkers        = 8
)

// rescore exact-scores the candidates — every row when cands is nil — into
// sc.sel in candidate order. Distances are computed ahead of the offers where
// the rows allow it: a block of the full scan that lies in the contiguous
// in-RAM rows by one one-vs-many kernel call (blockDists), a large shortlist
// over in-RAM rows by parallelDists. The offers still happen here, serially
// and in the same order, so results are bitwise identical on every path.
func (c *core) rescore(ctx context.Context, sc *scratch, q tensor.Vector, qNorm float64, cands []candidate) error {
	n := len(cands)
	if cands == nil {
		n = len(c.ids)
	}
	var dists []float64
	if cands != nil && c.f == nil && n >= rescoreParallelThreshold && rescoreMaxWorkers >= 2 {
		dists = c.parallelDists(sc, q, qNorm, cands)
	}
	for lo := 0; lo < n; lo += ctxCheckInterval {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		hi := min(lo+ctxCheckInterval, n)
		if cands == nil && lo >= c.segN {
			for j, dist := range c.blockDists(sc, q, qNorm, lo, hi) {
				sc.sel.offer(candidate{idx: lo + j, dist: dist})
			}
			continue
		}
		for j := lo; j < hi; j++ {
			i := j
			if cands != nil {
				i = cands[j].idx
			}
			var dist float64
			if dists != nil {
				dist = dists[j]
			} else {
				row, err := c.rowAt(sc, i)
				if err != nil {
					return err
				}
				dist = c.metric.distFlat(q, qNorm, row, c.norms[i])
			}
			sc.sel.offer(candidate{idx: i, dist: dist})
		}
	}
	return nil
}

// blockDists computes the exact distance of rows [lo, hi) — all past the
// segment, so contiguous in c.rows — into sc.dists: one kernel call for the
// block, then distFlat's own finish per row.
func (c *core) blockDists(sc *scratch, q tensor.Vector, qNorm float64, lo, hi int) []float64 {
	if cap(sc.dists) < hi-lo {
		sc.dists = make([]float64, ctxCheckInterval)
	}
	dists := sc.dists[:hi-lo]
	rows := c.rows[(lo-c.segN)*c.dim : (hi-c.segN)*c.dim]
	if c.metric == Cosine {
		tensor.DotRows(q, rows, dists)
	} else {
		tensor.SquaredL2Rows(q, rows, dists)
	}
	for j, kv := range dists {
		dists[j] = c.metric.fromKernel(kv, qNorm, c.norms[lo+j])
	}
	return dists
}

// parallelDists computes the exact distance of every candidate into
// sc.dists, each worker writing a disjoint index range. Rows must be in RAM:
// workers share no scratch.
func (c *core) parallelDists(sc *scratch, q tensor.Vector, qNorm float64, cands []candidate) []float64 {
	if cap(sc.dists) < len(cands) {
		sc.dists = make([]float64, len(cands))
	}
	dists := sc.dists[:len(cands)]
	workers := min(rescoreMaxWorkers, runtime.GOMAXPROCS(0), len(cands))
	chunk := (len(cands) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(cands); lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for j := lo; j < hi; j++ {
				i := cands[j].idx
				row, _ := c.rowAt(nil, i) // in RAM: no scratch, no error
				dists[j] = c.metric.distFlat(q, qNorm, row, c.norms[i])
			}
		}(lo, min(lo+chunk, len(cands)))
	}
	wg.Wait()
	return dists
}

// Len implements Index.
func (c *core) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.ids)
}

// MemBytes estimates the heap retained by the index: ID strings, norms, the
// in-RAM full-precision rows and the ranking tier — NOT segment rows, which
// stay on disk and are pread per rescore (that gap is the point of disk
// residency). The same 48-byte map-bucket and 16-byte string-header
// heuristics the keyword index uses, so tier reports add up consistently.
func (c *core) MemBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := idSliceBytes(c.ids) + int64(len(c.rows))*8 + int64(len(c.norms))*8
	for id := range c.byID {
		n += int64(len(id)) + memStrHeader + memMapEntry
	}
	return n + c.tierBytes()
}

// ResidentTierBytes reports the heap held by the approximate ranking tier
// alone — int8 codes and row params, or PQ codebook plus codes. Zero on a
// plain exact index. The scale experiment compares this number across tier
// choices, where MemBytes would drown it in IDs and full-precision rows.
func (c *core) ResidentTierBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tierBytes()
}

func (c *core) tierBytes() int64 {
	if c.tier == nil {
		return 0
	}
	return c.tier.memBytes()
}
