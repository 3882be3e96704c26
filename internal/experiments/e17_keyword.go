package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"modellake/internal/data"
	"modellake/internal/search"
	"modellake/internal/xrand"
)

// E17 benchmarks the keyword read path (DESIGN.md §13): the exhaustive map
// scorer vs block-max pruned top-k over compressed postings segments. Every
// pruned point is verified bitwise-identical to the map scorer on a query
// sample — the pruning is an acceleration, not an approximation — and each
// point reports the postings tier's resident heap bytes, so the table shows
// both halves of the tradeoff: query speed and index memory.

// KeywordPoint is one (scorer kind, corpus size) measurement.
type KeywordPoint struct {
	Kind              string  `json:"kind"` // "map" or "pruned"
	NDocs             int     `json:"n_docs"`
	K                 int     `json:"k"`
	Queries           int     `json:"queries"`
	QPS               float64 `json:"qps"`
	P50Ns             int64   `json:"p50_ns"`
	P99Ns             int64   `json:"p99_ns"`
	AllocsPerOp       float64 `json:"allocs_per_op"`
	IdenticalTopK     bool    `json:"identical_topk"`           // vs the map scorer
	PostingsHeapBytes int64   `json:"postings_heap_bytes"`      // index-accounted resident bytes
	BlocksScanned     uint64  `json:"blocks_scanned,omitempty"` // pruned only: decoded blocks
	BlocksSkipped     uint64  `json:"blocks_skipped,omitempty"` // pruned only: pruned without decode
}

// KeywordBenchResult is the machine-readable summary cmd/lakebench writes to
// BENCH_keyword.json so CI can track the keyword read path over time.
type KeywordBenchResult struct {
	Points []KeywordPoint `json:"points"`
}

// RunE17 is the experiment-index entry point with the default sweep: 10k and
// 100k documents.
func RunE17(seed uint64) (*Table, error) {
	t, _, err := RunE17Keyword(seed, nil, 0)
	return t, err
}

// RunE17Keyword measures the two keyword read paths at the given corpus
// sizes with queries queries per point. sizes nil means {10_000, 100_000};
// queries <= 0 means 300.
func RunE17Keyword(seed uint64, sizes []int, queries int) (*Table, *KeywordBenchResult, error) {
	if len(sizes) == 0 {
		sizes = []int{10_000, 100_000}
	}
	if queries <= 0 {
		queries = 300
	}
	const k = 10
	t := &Table{
		ID:    "E17",
		Title: "keyword search: block-max pruned postings segments vs map scorer",
		Columns: []string{"path", "docs", "qps", "p50", "p99", "allocs/op",
			"identical top-k", "postings heap", "blocks skipped"},
		Notes: "pruned rows are verified bitwise-identical to the exhaustive map scorer; heap is the postings tier's own accounting",
	}
	res := &KeywordBenchResult{}
	for _, n := range sizes {
		pts, err := measureKeywordPoint(seed, n, k, queries)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range pts {
			res.Points = append(res.Points, p)
			skipped := "-"
			if p.Kind != "map" {
				skipped = fmt.Sprintf("%d (%.0f%%)", p.BlocksSkipped,
					100*float64(p.BlocksSkipped)/math.Max(1, float64(p.BlocksSkipped+p.BlocksScanned)))
			}
			t.AddRow(p.Kind, fmt.Sprint(p.NDocs), f2(p.QPS),
				time.Duration(p.P50Ns).Round(time.Microsecond).String(),
				time.Duration(p.P99Ns).Round(time.Microsecond).String(),
				f2(p.AllocsPerOp), fmt.Sprint(p.IdenticalTopK),
				fmt.Sprintf("%.1f MiB", float64(p.PostingsHeapBytes)/(1<<20)),
				skipped)
		}
	}
	return t, res, nil
}

// keywordCorpus generates n model-card-like documents across the standard
// text domains — the same generator lakegen cards use, so term frequencies
// and vocabulary skew match what a real lake's keyword index holds.
func keywordCorpus(seed uint64, n int) (ids, texts []string) {
	rng := xrand.New(seed)
	domains := data.StandardTextDomains()
	ids = make([]string, n)
	texts = make([]string, n)
	for i := 0; i < n; i++ {
		ids[i] = fmt.Sprintf("m%07d", i)
		d := domains[rng.Intn(len(domains))]
		texts[i] = data.GenerateDocument(d, 20+rng.Intn(40), 0.3, rng)
	}
	return ids, texts
}

// keywordQueries mixes the query shapes a card search sees: selective
// multi-keyword domain queries, cross-domain pairs, keyword+filler mixes
// (where block-max pruning earns its keep — the filler term's postings are
// huge but can never lift a document into the top-k), and single rare terms.
func keywordQueries(seed uint64, n int) []string {
	rng := xrand.New(seed ^ 0x5eed)
	domains := data.StandardTextDomains()
	filler := []string{"the", "model", "data", "system", "result", "report"}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		d := domains[rng.Intn(len(domains))]
		switch i % 4 {
		case 0: // selective same-domain triple
			out[i] = strings.Join([]string{
				xrand.Pick(rng, d.Keywords), xrand.Pick(rng, d.Keywords), xrand.Pick(rng, d.Keywords)}, " ")
		case 1: // cross-domain pair
			d2 := domains[rng.Intn(len(domains))]
			out[i] = xrand.Pick(rng, d.Keywords) + " " + xrand.Pick(rng, d2.Keywords)
		case 2: // common term + selective keyword
			out[i] = xrand.Pick(rng, filler) + " " + xrand.Pick(rng, d.Keywords) + " " + xrand.Pick(rng, filler)
		default: // single keyword
			out[i] = xrand.Pick(rng, d.Keywords)
		}
	}
	return out
}

// measureKeywordPoint builds both scorer variants over the same corpus and
// measures each, gating pruned on bitwise identity to the map scorer.
func measureKeywordPoint(seed uint64, n, k, nq int) ([]KeywordPoint, error) {
	ids, texts := keywordCorpus(seed+uint64(n), n)
	queries := keywordQueries(seed+uint64(n), nq)

	variants := []struct {
		kind string
		cfg  search.KeywordConfig
	}{
		{"map", search.KeywordConfig{MergeThreshold: -1}},
		{"pruned", search.KeywordConfig{}},
	}

	var err error
	var out []KeywordPoint
	var oracle [][]search.Hit
	var mapIdx *search.ShardedKeywordIndex
	for _, v := range variants {
		idx := search.NewShardedKeywordIndexConfig(v.cfg)
		for i := range ids {
			if err := idx.Add(ids[i], texts[i]); err != nil {
				idx.Close()
				return nil, fmt.Errorf("e17: %s add: %w", v.kind, err)
			}
		}
		p := KeywordPoint{Kind: v.kind, NDocs: n, K: k, Queries: len(queries), IdenticalTopK: true}
		if v.kind != "map" {
			// Merge the mutable tail into segments so the measurement is the
			// steady-state segment read path, not a mostly-map hybrid (small
			// corpora would otherwise never cross the merge threshold).
			if err := idx.Flush(); err != nil {
				idx.Close()
				return nil, fmt.Errorf("e17: flush: %w", err)
			}
		}

		// Identity oracle: the map scorer's answers on a sample of queries.
		sample := queries[:min(60, len(queries))]
		if v.kind == "map" {
			oracle = make([][]search.Hit, len(sample))
			for i, q := range sample {
				if oracle[i], err = idx.Search(q, k); err != nil {
					idx.Close()
					return nil, err
				}
			}
		} else {
			for i, q := range sample {
				got, err := idx.Search(q, k)
				if err != nil {
					idx.Close()
					return nil, err
				}
				if !sameKeywordHits(got, oracle[i]) {
					p.IdenticalTopK = false
					break
				}
			}
		}

		scanned0, skipped0 := search.KeywordBlockCounters()
		lats := make([]time.Duration, len(queries))
		start := time.Now()
		for i, q := range queries {
			qStart := time.Now()
			if _, err := idx.Search(q, k); err != nil {
				idx.Close()
				return nil, err
			}
			lats[i] = time.Since(qStart)
		}
		total := time.Since(start)
		scanned1, skipped1 := search.KeywordBlockCounters()
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p.QPS = float64(len(queries)) / total.Seconds()
		p.P50Ns = lats[len(lats)/2].Nanoseconds()
		p.P99Ns = lats[len(lats)*99/100].Nanoseconds()
		p.AllocsPerOp = allocsPerOp(50, func() { idx.Search(queries[0], k) })
		p.BlocksScanned = scanned1 - scanned0
		p.BlocksSkipped = skipped1 - skipped0
		p.PostingsHeapBytes = idx.MemBytes()
		out = append(out, p)

		if v.kind == "map" {
			mapIdx = idx // keep alive until the end; the oracle slices alias nothing, but symmetry is cheap
		} else {
			idx.Close()
		}
	}
	if mapIdx != nil {
		mapIdx.Close()
	}
	return out, nil
}

func sameKeywordHits(a, b []search.Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}
