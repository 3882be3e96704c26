package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"modellake/internal/cluster"
	"modellake/internal/embedding"
	"modellake/internal/index"
	"modellake/internal/lake"
	"modellake/internal/mlql"
	"modellake/internal/model"
	"modellake/internal/search"
	"modellake/internal/tensor"
)

// span is one timed call at a layer boundary. Spans of one request share
// Request; Parent is the index of the span one layer up (-1 for the HTTP
// call). A child is the same work called again one layer down through a
// public function, so it starts after its parent ended; a layer's self time
// is its span minus its children.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer runs the traced pass: one client, a fixed count per class, every
// request followed by the same work one layer down. It runs after the timed
// pass in the same process, so caches and the lake are in the state the
// timed pass left them.
type tracer struct {
	t       target
	clients []*client
	sched   *schedule
	pop     *population
	sc      scale
	wl      *workload
	dir     string
	m       metrics
	models  int // models in the lake; grows when the pass ingests
	next    int // first population item not yet ingested
	origin  time.Time

	spans   []span
	request int
	rec     *recorder
	httpP50 [numClasses]float64
}

// do times fn as a span and returns the span's index.
func (tr *tracer) do(name string, parent int, fn func() error) int {
	start := time.Since(tr.origin)
	err := fn()
	end := time.Since(tr.origin)
	tr.spans = append(tr.spans, span{name, int64(start), int64(end), parent, tr.request})
	if err != nil {
		tr.rec.fail("traced %s: %v", name, err)
	}
	return len(tr.spans) - 1
}

// http times one HTTP request as the root span of a new request.
func (tr *tracer) http(req request, body []byte) int {
	tr.request++
	return tr.do("http."+className[req.cls], -1, func() error {
		tr.rec.attempted++
		_, err := tr.clients[0].do(req.path, body)
		return err
	})
}

// durations returns the length in ms of every span called name.
func (tr *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfTimes returns, for every span called name, its length minus its
// direct children's.
func (tr *tracer) selfTimes(name string) []float64 {
	child := make([]float64, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.ms()
		}
	}
	var out []float64
	for i, s := range tr.spans {
		if s.Name == name {
			out = append(out, s.ms()-child[i])
		}
	}
	return out
}

func (tr *tracer) run(ctx context.Context) error {
	tr.rec = &recorder{}
	lk, _ := tr.t.(*lake.Lake)
	cl, _ := tr.t.(*cluster.Cluster)
	sc, s := tr.sc, tr.sched
	cold := tr.models - s.hot

	// related: distinct cold ids, and a k no earlier call used at each layer
	// (the layers share one query cache), so every search below is a miss.
	before := takeSnapshot()
	offset := int(s.draw(30, 0, 2) % uint64(cold))
	for i := 0; i < sc.tracePerClass && ctx.Err() == nil; i++ {
		id := modelID(s.hot + (offset+i)%cold)
		root := tr.http(request{clsRelated, "/v1/related?k=12&id=" + id, id}, nil)
		lspan := tr.do("lake.related", root, func() error {
			_, err := tr.t.SearchByModelContext(ctx, id, "", 14)
			return err
		})
		if lk == nil {
			continue
		}
		tr.do("lake.model_load", lspan, func() error { _, err := lk.Model(id); return err })
		var v tensor.Vector
		tr.do("embedding.query", lspan, func() (err error) { v, err = lk.EmbedModelQuery(id, ""); return })
		tr.do("search.vector", lspan, func() error { _, err := lk.SearchByVectorSpace(ctx, "", v, 17); return err })
	}
	after := takeSnapshot()
	hits, misses := delta(before, after, "lake_query_cache_hits_total", ""), delta(before, after, "lake_query_cache_misses_total", "")
	tr.m["lake.qcache.traced_hit_ratio"] = ratio(hits, hits+misses)

	// keyword: the lake call, then a standalone index of the lake's
	// configuration over the same card texts.
	kw, err := tr.keywordIndex()
	if err != nil {
		return err
	}
	defer kw.Close()
	for i := 0; i < sc.tracePerClass && ctx.Err() == nil; i++ {
		req := s.of(clsKeyword, 30, i, tr.models)
		root := tr.http(req, nil)
		lspan := tr.do("lake.keyword", root, func() error { _, err := tr.t.SearchKeywordContext(ctx, req.arg, 10); return err })
		tr.do("search.keyword", lspan, func() error { _, err := kw.Search(req.arg, 10); return err })
	}

	// point, and the registry calls MLQL leans on.
	for i := 0; i < sc.tracePerClass && ctx.Err() == nil; i++ {
		req := s.of(clsPoint, 30, i, sc.models)
		root := tr.http(req, nil)
		tr.do("lake.point", root, func() error { _, err := tr.t.Record(req.arg); return err })
		if tr.pop.items[modelIndex(req.arg)].Card != nil {
			tr.request++
			tr.do("registry.card", -1, func() error { _, err := tr.t.Card(req.arg); return err })
		}
	}
	for i := 0; i < 5; i++ {
		tr.request++
		tr.do("registry.list", -1, func() error { _, err := tr.t.Records(); return err })
	}

	// mlql: parse, candidate rows and execution under the lake call.
	var cat mlql.Catalog
	if lk != nil {
		cat = lk.Catalog()
	} else {
		cat = cl.Catalog()
	}
	var rows, mlqlHits int
	for i := 0; i < sc.traceMLQL && ctx.Err() == nil; i++ {
		req := s.of(clsMLQL, 30, i, tr.models)
		root := tr.http(req, nil)
		lspan := tr.do("lake.mlql", root, func() error { _, err := tr.t.QueryContext(ctx, req.arg); return err })
		var q *mlql.Query
		tr.do("mlql.parse", lspan, func() (err error) { q, err = mlql.Parse(req.arg); return })
		espan := tr.do("mlql.execute", lspan, func() error {
			res, err := mlql.ExecuteContext(ctx, q, cat)
			if err == nil {
				mlqlHits += len(res.Hits)
			}
			return err
		})
		tr.do("mlql.candidates", espan, func() error {
			r, err := cat.Candidates()
			rows += len(r)
			return err
		})
	}

	for i := 0; i < sc.tracePerClass && ctx.Err() == nil; i++ {
		tr.http(request{clsHealthz, "/healthz", ""}, nil)
	}

	// ingest batches: one over HTTP, then one of the same size through the
	// LakeAPI, so the handler's decode is the server's self time.
	if tr.wl.writer {
		for i := 0; i < sc.traceBatches && ctx.Err() == nil; i++ {
			items := tr.pop.items[tr.next : tr.next+sc.pacedBatch]
			body, err := encodeBatch(items)
			if err != nil {
				return err
			}
			root := tr.http(request{clsIngestBatch, "/v1/models/batch", ""}, body)
			direct := tr.pop.items[tr.next+sc.pacedBatch : tr.next+2*sc.pacedBatch]
			tr.do("lake.ingest_batch", root, func() error {
				_, errs := tr.t.IngestAllContext(ctx, direct, 0)
				for _, err := range errs {
					if err != nil {
						return err
					}
				}
				return nil
			})
			tr.next += 2 * sc.pacedBatch
			tr.models += 2 * sc.pacedBatch
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	m := tr.m
	for _, c := range []class{clsRelated, clsKeyword, clsPoint, clsMLQL, clsIngestBatch} {
		tr.httpP50[c] = median(tr.durations("http." + className[c]))
		m["server."+className[c]+".self_p50_ms"] = median(tr.selfTimes("http." + className[c]))
	}
	m["server.healthz.p50_ms"] = median(tr.durations("http.healthz"))
	for _, c := range []string{"related", "keyword", "point", "mlql"} {
		m["lake."+c+".p50_ms"] = median(tr.durations("lake." + c))
		if cl != nil && c != "point" {
			m["cluster."+c+".p50_ms"] = m["lake."+c+".p50_ms"]
		}
	}
	m["lake.related.self_p50_ms"] = median(tr.selfTimes("lake.related"))
	m["lake.model_load.p50_ms"] = median(tr.durations("lake.model_load"))
	m["embedding.query.p50_ms"] = median(tr.durations("embedding.query"))
	m["search.vector.p50_ms"] = median(tr.durations("search.vector"))
	m["search.keyword.p50_ms"] = median(tr.durations("search.keyword"))
	m["mlql.parse.p50_us"] = median(tr.durations("mlql.parse")) * 1e3
	m["mlql.candidates.p50_ms"] = median(tr.durations("mlql.candidates"))
	m["mlql.execute.p50_ms"] = median(tr.durations("mlql.execute"))
	m["mlql.rows_examined_per_hit"] = ratio(float64(rows), float64(mlqlHits))
	m["registry.card.p50_us"] = median(tr.durations("registry.card")) * 1e3
	m["registry.list.p50_ms"] = median(tr.durations("registry.list"))
	return tr.standalone(ctx)
}

// keywordIndex builds a standalone keyword index configured like the served
// lake's over the preloaded card texts.
func (tr *tracer) keywordIndex() (*search.ShardedKeywordIndex, error) {
	cfg := search.KeywordConfig{}
	if tr.wl.kind == "pqdisk" {
		cfg.Dir = filepath.Join(tr.dir, "trace-postings")
		if tr.wl.writer {
			cfg.MergeThreshold = 64
		}
	}
	kw := search.NewShardedKeywordIndexConfig(cfg)
	for i, text := range tr.pop.texts {
		if text == "" {
			continue
		}
		if err := kw.Add(modelID(i), text); err != nil {
			return nil, fmt.Errorf("standalone keyword index: %w", err)
		}
	}
	if cfg.Dir != "" {
		// The served lake's postings were flushed to segments by Close.
		if err := kw.Flush(); err != nil {
			return nil, fmt.Errorf("standalone keyword index: %w", err)
		}
	}
	return kw, nil
}

// standalone measures the layers under search.vector in isolation: an index
// of the workload's kind over the same behaviour vectors, the kernels under
// it and, on the flat workload, every index kind side by side.
func (tr *tracer) standalone(ctx context.Context) error {
	sc, m := tr.sc, tr.m
	emb := embedding.NewBehaviorEmbedder(8, 32, 8, 1)
	ids := make([]string, sc.models)
	vecs := make([]tensor.Vector, sc.models)
	for i := range vecs {
		v, err := emb.Embed(model.NewHandle(tr.pop.items[i].Model))
		if err != nil {
			return fmt.Errorf("embed %s: %w", modelID(i), err)
		}
		ids[i], vecs[i] = modelID(i), v
	}
	queries := make([]tensor.Vector, sc.sideQueries)
	for i := range queries {
		queries[i] = vecs[tr.sched.hot+int(tr.sched.draw(31, i, 0)%uint64(sc.models-tr.sched.hot))]
	}
	pqCfg := index.QuantConfig{PQSubspaces: 8, Seed: 1}
	segment := func(name string) (*index.DiskFlat, float64, error) {
		path := filepath.Join(tr.dir, name)
		d, err := index.BuildDiskFlat(path, nil, index.Cosine, pqCfg, ids, func(i int) []float64 { return vecs[i] })
		if err != nil {
			return nil, 0, err
		}
		if err := d.Close(); err != nil {
			return nil, 0, err
		}
		start := time.Now()
		d, err = index.OpenDiskFlat(path, nil, index.Cosine, pqCfg)
		return d, float64(time.Since(start)) / 1e6, err
	}
	ram := func(idx index.Index) (index.Index, error) {
		for i, v := range vecs {
			if err := idx.Add(ids[i], v); err != nil {
				return nil, err
			}
		}
		return idx, nil
	}
	searchP50 := func(idx index.Index) (float64, [][]index.Result, error) {
		lat := make([]float64, len(queries))
		res := make([][]index.Result, len(queries))
		for i, q := range queries {
			start := time.Now()
			r, err := idx.Search(ctx, q, 11)
			lat[i] = float64(time.Since(start)) / 1e6
			if err != nil {
				return 0, nil, err
			}
			res[i] = r
		}
		return median(lat), res, nil
	}

	// The workload's own kind.
	var own index.Index
	var err error
	if tr.wl.kind == "pqdisk" {
		var d *index.DiskFlat
		if d, m["index.segment_open_ms"], err = segment("trace-own.seg"); err == nil {
			defer d.Close()
			own, m["index.tier_bytes_per_row"] = d, float64(d.ResidentTierBytes())/float64(sc.models)
		}
	} else {
		own, err = ram(index.NewFlat(index.Cosine))
	}
	if err != nil {
		return fmt.Errorf("standalone index: %w", err)
	}
	before := takeSnapshot()
	if m["index.search.p50_ms"], _, err = searchP50(own); err != nil {
		return fmt.Errorf("standalone index: %w", err)
	}
	after := takeSnapshot()
	if tr.wl.kind == "pqdisk" {
		perSearch := ratio(delta(before, after, "ann_candidates_scanned_total", ""), float64(len(queries)))
		m["index.rescore_rows_per_search"] = perSearch - float64(sc.models)
	}

	// Kernels: one query against a contiguous slab of the same rows.
	dim := len(vecs[0])
	slab := make([]float64, 0, sc.models*dim)
	for _, v := range vecs {
		slab = append(slab, v...)
	}
	const reps = 20
	var sink float64
	start := time.Now()
	for r := 0; r < reps; r++ {
		for i := 0; i < sc.models; i++ {
			sink += tensor.DotKernel(queries[0], slab[i*dim:(i+1)*dim])
		}
	}
	m["tensor.dot_scan.ns_per_row"] = float64(time.Since(start)) / float64(reps*sc.models)
	const sub = 8
	codes := make([]uint8, sc.models*sub)
	for i := range codes {
		codes[i] = uint8(tr.sched.draw(32, i, 0))
	}
	lut := slab[:sub*tensor.PQLUTEntries]
	start = time.Now()
	for r := 0; r < reps; r++ {
		for i := 0; i < sc.models; i++ {
			sink += tensor.PQLUTKernel(codes[i*sub:(i+1)*sub], lut)
		}
	}
	m["tensor.adc_scan.ns_per_row"] = float64(time.Since(start)) / float64(reps*sc.models)
	if sink == 0 {
		return fmt.Errorf("kernel scans summed to exactly zero")
	}

	if tr.wl.kind != "flat" || tr.wl.writer {
		return nil
	}
	// Index-kind side table: the evidence for collapsing the tiers and for
	// settling HNSW, and the only coverage of the int8 tier.
	type memer interface{ MemBytes() int64 }
	side := func(kind string, idx index.Index) ([][]index.Result, error) {
		p50, res, err := searchP50(idx)
		if err != nil {
			return nil, fmt.Errorf("side table %s: %w", kind, err)
		}
		m["index."+kind+".search_p50_ms"] = p50
		m["index."+kind+".bytes_per_row"] = float64(idx.(memer).MemBytes()) / float64(sc.models)
		return res, nil
	}
	exact, err := side("flat", own)
	if err != nil {
		return err
	}
	for _, k := range []struct {
		kind string
		idx  *index.Flat
	}{{"int8", index.NewFlatQuantized(index.Cosine, index.QuantConfig{Seed: 1})}, {"pq", index.NewFlatPQ(index.Cosine, pqCfg)}} {
		idx, err := ram(k.idx)
		if err != nil {
			return fmt.Errorf("side table %s: %w", k.kind, err)
		}
		if _, err := side(k.kind, idx); err != nil {
			return err
		}
	}
	d, _, err := segment("trace-side.seg")
	if err != nil {
		return fmt.Errorf("side table diskflat: %w", err)
	}
	defer d.Close()
	if _, err := side("diskflat", d); err != nil {
		return err
	}
	start = time.Now()
	hnsw, err := ram(index.NewHNSW(index.Cosine, index.HNSWConfig{Seed: 1}))
	if err != nil {
		return fmt.Errorf("side table hnsw: %w", err)
	}
	m["index.hnsw.build_s"] = time.Since(start).Seconds()
	approx, err := side("hnsw", hnsw)
	if err != nil {
		return err
	}
	found, want := 0, 0
	for i := range exact {
		truth := map[string]bool{}
		for _, r := range exact[i][:min(10, len(exact[i]))] {
			truth[r.ID] = true
		}
		want += len(truth)
		for _, r := range approx[i][:min(10, len(approx[i]))] {
			if truth[r.ID] {
				found++
			}
		}
	}
	m["index.hnsw.recall_at_10"] = ratio(float64(found), float64(want))
	return nil
}

// write stores the spans as trace-<workload>.json under dir.
func (tr *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	b, err := json.Marshal(map[string]any{"workload": workload, "spans": tr.spans})
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(dir, "trace-"+strings.ReplaceAll(workload, "/", "_")+".json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}
