package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"modellake/internal/lake"
	"modellake/internal/server"
)

// workload is one traffic mix against one deployment shape.
type workload struct {
	Name   string
	Why    string
	kind   string // flat | pqdisk | cluster, see openTarget
	writer bool   // client 0 posts batches on a schedule beside the reader, then in bulk
	// recallFloor is 0 where every sampled answer must equal the reference
	// lake's bytes. On the PQ workloads it is the least recall@10 the 512
	// sampled related and related_hot answers may have; see shortlisted.
	recallFloor float64
}

var workloads = []workload{
	{"read_flat_4k", "float64 flat scan as `serve` opens a lake: the scan and tensor kernels are most of a related miss, server+JSON are all of a point read", "flat", false, 0},
	{"read_pqdisk_4k", "same requests through PQ ADC shortlist, pread rescore and disk postings: bypasses the flat scan, so a Flat/kernel change must not move it", "pqdisk", false, 0.985},
	{"read_cluster_4k", "same requests through 2 shards x 1 replica: the only path through scatter-gather, MergeTopK, global-stats BM25 and clusterCatalog", "cluster", false, 0},
	{"write_pqdisk_4k", "paced 32-model batches (WAL group commit, blob PutAll, keyword merges, cache invalidation, tail spill) beside the read mix: a read gain that costs writes shows", "pqdisk", true, 0.95},
}

// scale sizes a run. fullScale is what BENCHMARK.json measures; the smoke
// test has a toy one.
type scale struct {
	// models are preloaded during set-up. A multiple of the registry's
	// 64-ID lease block (and of the family size 5), so that the reopen
	// skips no IDs and the writer's models continue the m-%06d sequence the
	// reference lake mints without a restart.
	models         int
	hot            int // ids [0,hot) form the hot set; must fit the 1024-entry query cache
	warmup         int // fixed read requests after reopen, part of set-up
	mlqlQueries    int // the mlql phase is a fixed count: a 60 ms class cannot share a count-weighted loop with 0.1 ms classes
	verifyPerClass int
	verifyMLQL     int
	tracePerClass  int
	traceMLQL      int
	pacedBatch     int           // models per paced POST
	pacedPeriod    time.Duration // one paced POST per period
	bulkBatch      int           // models per bulk POST
	bulkModels     int           // the bulk phase is a fixed count too
	traceBatches   int           // ingest batches the traced pass posts (and as many it ingests directly)
	sideQueries    int           // searches per standalone index
	setups         int           // builds timed for setup_s
}

var fullScale = scale{models: 4160, hot: 256, warmup: 2000, mlqlQueries: 16,
	verifyPerClass: 256, verifyMLQL: 16, tracePerClass: 300, traceMLQL: 16,
	pacedBatch: 32, pacedPeriod: 125 * time.Millisecond, bulkBatch: 64, bulkModels: 2048,
	traceBatches: 6, sideQueries: 200, setups: 3}

type options struct {
	workload string
	seed     uint64
	mix      time.Duration // length of the timed mix phase
	trace    bool
	scale    scale
	log      io.Writer // progress and the human-readable metric list
	traceDir string    // trace-<workload>.json is written here when tracing
	// corruptReference flips a byte of one reference answer, so the smoke
	// test can see exact_match_frac notice.
	corruptReference bool
}

// report is one run's outcome.
type report struct {
	Workload  string
	Storage   string
	Correct   bool
	Attempted int
	Failed    int
	Metrics   metrics
	Problems  []string // why Correct is false, offending requests first
}

func (r *report) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// handlerBody runs one request through a handler without a network and
// returns the status and body — how reference answers are rendered with the
// server's own encoder.
func handlerBody(h http.Handler, path string, body []byte) (int, []byte) {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		method, rd = http.MethodPost, bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec.Code, rec.Body.Bytes()
}

func heapAlloc() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func run(ctx context.Context, o options) (*report, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].Name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	sc := o.scale
	logf := func(format string, args ...any) { fmt.Fprintf(o.log, format+"\n", args...) }

	root, storage, err := storageRoot()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "lakeload-*")
	if err != nil {
		return nil, fmt.Errorf("lake directory: %w", err)
	}
	defer os.RemoveAll(dir)
	logf("# workload=%s seed=%d mix=%s trace=%v storage=%s models=%d", wl.Name, o.seed, o.mix, o.trace, storage, sc.models)

	// Inputs: population, request bodies, schedule. All from -seed.
	pacedBatches, bulkBatches, traceModels := 0, 0, 0
	if wl.writer {
		pacedBatches = int(o.mix / sc.pacedPeriod)
		bulkBatches = sc.bulkModels / sc.bulkBatch
		if o.trace {
			traceModels = 2 * sc.traceBatches * sc.pacedBatch
		}
	}
	timedWrites := pacedBatches*sc.pacedBatch + bulkBatches*sc.bulkBatch
	pop, err := generate(o.seed, sc.models, timedWrites+traceModels)
	if err != nil {
		return nil, err
	}
	if len(pop.freq) == 0 || len(pop.rare) == 0 || len(pop.domains) == 0 || sc.hot >= sc.models {
		return nil, fmt.Errorf("population too small for the schedule: %d frequent terms, %d rare terms, %d domains",
			len(pop.freq), len(pop.rare), len(pop.domains))
	}
	sched := &schedule{seed: o.seed, hot: sc.hot, pop: pop}
	next := sc.models // first population item no batch has taken yet
	batchBodies := func(n, size int) ([][]byte, error) {
		out := make([][]byte, n)
		for i := range out {
			body, err := encodeBatch(pop.items[next : next+size])
			if err != nil {
				return nil, err
			}
			out[i], next = body, next+size
		}
		return out, nil
	}
	pacedBodies, err := batchBodies(pacedBatches, sc.pacedBatch)
	if err != nil {
		return nil, err
	}
	bulkBodies, err := batchBodies(bulkBatches, sc.bulkBatch)
	if err != nil {
		return nil, err
	}
	finalModels := sc.models + timedWrites

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Set-up: build → Close → reopen (the path `serve` takes) → warm-up.
	rep := &report{Workload: wl.Name, Storage: storage, Correct: true, Metrics: metrics{}}
	m := rep.Metrics
	heap0 := heapAlloc()
	t, first, err := buildLake(wl, dir, pop)
	if err != nil {
		return nil, err
	}
	builds := []build{first}
	m["lake.preload_s"] = first.preload.Seconds()
	m["lake.first_open_s"] = first.reopen.Seconds()
	closeTarget := func() error {
		if t == nil {
			return nil
		}
		err := t.Close()
		t = nil
		return err
	}
	defer closeTarget()
	warmStart := time.Now()
	base, stopServer, err := serve(t)
	if err != nil {
		return nil, err
	}
	defer stopServer()
	clients := []*client{newClient(base), newClient(base)}
	defer clients[0].close()
	defer clients[1].close()
	warm := []*recorder{{}, {}}
	var wg sync.WaitGroup
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for i := 0; i < sc.warmup/2; i++ {
				warm[ci].timed(clients[ci], sched.read(10+ci, i, sc.models), nil, time.Now())
			}
			warm[ci].timed(clients[ci], sched.of(clsMLQL, 10+ci, 0, sc.models), nil, time.Now())
		}(ci)
	}
	wg.Wait()
	warmed := time.Since(warmStart).Seconds()
	heap1 := heapAlloc()
	m["heap_kb_per_model"] = (heap1 - heap0) / 1024 / float64(sc.models)
	disk, err := dirBytes(dir, "")
	if err != nil {
		return nil, fmt.Errorf("measure lake directory: %w", err)
	}
	m["disk_kb_per_model"] = float64(disk) / 1024 / float64(sc.models)
	if lk, ok := t.(*lake.Lake); ok {
		ts := lk.TierMemStats()
		m["lake.heap.vector_kb_per_model"] = float64(ts.VectorBytes) / 1024 / float64(sc.models)
		m["lake.heap.postings_kb_per_model"] = float64(ts.PostingsBytes) / 1024 / float64(sc.models)
		m["lake.heap.kv_kb_per_model"] = float64(ts.KVBytes) / 1024 / float64(sc.models)
	}
	logf("# set-up done: build %.2fs, warm-up %.2fs", first.total.Seconds(), warmed)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Timed pass, tracing off.
	var logBytes0, blobBytes0 int64
	if wl.writer {
		logBytes0, _ = dirBytes(dir, "/lake.log")
		blobBytes0, _ = dirBytes(dir, "/blobs/")
	}
	before := takeSnapshot()
	steal0, ticks0 := cpuTicks()
	recs := []*recorder{{}, {}}
	var models atomic.Int64
	models.Store(int64(sc.models))
	mixStart := time.Now()
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			if wl.writer && ci == 0 {
				recs[0].pacedWriter(ctx, clients[0], pacedBodies, sc.pacedBatch, mixStart, sc.pacedPeriod, &models)
				return
			}
			recs[ci].readLoop(ctx, clients[ci], sched, ci, mixStart, o.mix, &models)
		}(ci)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// One client: two concurrent 60 ms queries contend for memory bandwidth
	// and the collector, which makes their median bimodal.
	fixedCount(ctx, clients[:1], recs[:1], sched, clsMLQL, 40, sc.mlqlQueries, int(models.Load()))
	var bulkElapsed time.Duration
	if wl.writer {
		bulkElapsed = recs[0].closedWriter(ctx, clients[0], bulkBodies, sc.bulkBatch, &models)
	}
	after := takeSnapshot()
	steal1, ticks1 := cpuTicks()
	m["loadgen.cpu_steal_frac"] = ratio(steal1-steal0, ticks1-ticks0)
	heap2 := heapAlloc()
	timed := &recorder{} // both clients pooled: what the metrics are computed from
	for _, r := range recs {
		timed.merge(r)
	}
	rep.count(warm[0], warm[1], timed)
	written := float64(models.Load()) - float64(sc.models)
	if int(models.Load()) != finalModels {
		rep.problem("lake holds %d acked models after the timed writes, schedule wrote %d", models.Load(), finalModels)
	}
	timedMetrics(m, timed, before, after)
	for w, n := range timed.windows {
		one := map[int]bool{w + 1: true}
		logf("# second %2d: %5d reads, p10 related %.3f keyword %.3f point %.3f ms", w+1, n,
			quantile(timed.in(clsRelated, one), 0.10), quantile(timed.in(clsKeyword, one), 0.10), quantile(timed.in(clsPoint, one), 0.10))
	}
	m["lake.heap_growth_kb_per_model"] = (heap2 - heap1) / 1024 / float64(models.Load())
	if wl.writer {
		m["loadgen.ingest_models_per_s"] = ratio(float64(bulkBatches*sc.bulkBatch), bulkElapsed.Seconds())
		logBytes1, _ := dirBytes(dir, "/lake.log")
		blobBytes1, _ := dirBytes(dir, "/blobs/")
		writeMetrics(m, before, after, written, float64(logBytes1-logBytes0), float64(blobBytes1-blobBytes0))
	}
	// One slow batch makes the next one late, and its latency says so. Only
	// a writer that is late half the time has stopped being a schedule.
	if l := median(timed.lateness); l > 50 {
		rep.problem("paced writer fell behind its schedule: median lateness %.1f ms > 50 ms", l)
	}
	logf("# timed pass done: %d requests", timed.attempted)

	// Sample answers now; the reference lake that judges them is only built
	// once the served lake is closed, so it shares neither the heap readings
	// nor the obs counters with it.
	vrec := &recorder{}
	checks := sampleRequests(sched, sc, finalModels)
	for i := range checks {
		if got := vrec.timed(clients[0], checks[i].req, nil, time.Now()); got != nil {
			checks[i].got = append([]byte(nil), got...)
		}
	}
	if wl.writer {
		// Every acked write must be readable before the restart as well.
		for i := sc.models; i < finalModels; i++ {
			vrec.timed(clients[0], request{clsPoint, "/v1/models/" + modelID(i), modelID(i)}, nil, time.Now())
		}
	}
	rep.count(vrec)

	// Traced pass, same process, after the timed pass.
	if o.trace {
		tr := &tracer{t: t, clients: clients, sched: sched, pop: pop, sc: sc, wl: wl, dir: dir, m: m,
			models: int(models.Load()), next: next, origin: time.Now()}
		if err := tr.run(ctx); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		m["trace.overhead_frac"] = ratio(tr.httpP50[clsRelated], m["loadgen.related.p50_all_ms"]) - 1
		models.Store(int64(tr.models))
		rep.count(tr.rec)
		if err := tr.write(o.traceDir, wl.Name); err != nil {
			return nil, err
		}
	}

	// Restart: no acked write may be lost, and a second open only adopts.
	if err := stopServer(); err != nil {
		return nil, err
	}
	if err := closeTarget(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	reopenStart := time.Now()
	if t, err = openTarget(wl.kind, dir, wl.writer); err != nil {
		return nil, fmt.Errorf("final reopen: %w", err)
	}
	m["lake.reopen_s"] = time.Since(reopenStart).Seconds()
	if got := t.Count(); got != int(models.Load()) {
		rep.Failed += int(models.Load()) - got
		rep.problem("lost acked writes: %d models after reopen, %d acked", got, models.Load())
	}
	if err := closeTarget(); err != nil {
		return nil, fmt.Errorf("final close: %w", err)
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("remove lake directory: %w", err)
	}
	if _, err := os.Stat(dir); err == nil {
		rep.problem("lake directory %s left behind", dir)
	}

	// Set-up is timed several times, each build in a fresh directory, and the
	// median reported: the first build of a process also grows the heap, and
	// one in ten took 1.3 times as long as the rest. The one warm-up is added.
	for len(builds) < sc.setups {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, fmt.Errorf("lake directory: %w", err)
		}
		again, b, err := buildLake(wl, dir, pop)
		if err != nil {
			return nil, err
		}
		builds = append(builds, b)
		if err := again.Close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, fmt.Errorf("remove lake directory: %w", err)
		}
	}
	var totals, rates []float64
	for _, b := range builds {
		totals = append(totals, b.total.Seconds())
		rates = append(rates, b.chunkRates...)
	}
	m["setup_s"] = median(totals) + warmed
	m["preload_models_per_s"] = median(rates)
	logf("# builds %.2f s", totals)

	if err := referenceAnswers(pop, append(pacedBodies, bulkBodies...), checks); err != nil {
		return nil, err
	}
	if o.corruptReference {
		checks[0].want[len(checks[0].want)/2] ^= 0x20
	}
	rep.judge(wl, checks, logf)
	m["loadgen.failed_frac"] = ratio(float64(rep.Failed), float64(rep.Attempted))
	if rep.Failed > 0 {
		rep.problem("%d of %d requests failed", rep.Failed, rep.Attempted)
	}
	return rep, nil
}

// count adds the recorders' requests to the run's attempted and failed, and
// their offending requests to the front of its problems.
func (r *report) count(recs ...*recorder) {
	for _, rec := range recs {
		r.Attempted += rec.attempted
		r.Failed += rec.failed
		r.Problems = append(rec.failures, r.Problems...)
	}
}

// judge compares every sampled answer with the reference's and reports
// exact_match_frac and recall_at_10.
func (r *report) judge(wl *workload, checks []check, logf func(string, ...any)) {
	var matched, sampled [numClasses]int
	found, wanted, shown := 0, 0, 0 // found and wanted count the ids of the shortlisted answers
	for _, ck := range checks {
		c := ck.req.cls
		sampled[c]++
		if ck.got == nil {
			continue // the request failed and is counted there
		}
		same := sameAnswer(ck)
		if same {
			matched[c]++
		} else if shown < 3 {
			shown++
			logf("# GET %s: answer differs from the reference lake\n#   got:  %.400s\n#   want: %.400s", ck.req.path, oneLine(ck.got), oneLine(ck.want))
		}
		if !wl.shortlisted(c) {
			continue
		}
		f, w, err := recallMiss(scoredHits(ck.got), scoredHits(ck.want))
		found, wanted = found+f, wanted+w
		if !same && err != nil {
			r.problem("GET %s: not the exact top-k of a shortlist: %v", ck.req.path, err)
		}
	}
	allMatched := 0
	for c := range sampled {
		if sampled[c] == 0 {
			continue
		}
		allMatched += matched[c]
		logf("# checked %-11s %3d of %3d answers equal the reference's bytes", className[c], matched[c], sampled[c])
		if !wl.shortlisted(class(c)) && matched[c] != sampled[c] {
			r.problem("%s: %d of %d sampled answers differ from the reference lake", className[c], sampled[c]-matched[c], sampled[c])
		}
	}
	recall := 1.0
	if wanted > 0 {
		recall = float64(found) / float64(wanted)
	}
	if recall < wl.recallFloor {
		r.problem("related and related_hot: recall@10 against the reference lake is %.4f, floor is %.3f", recall, wl.recallFloor)
	}
	r.Metrics["loadgen.recall_at_10"] = recall
	r.Metrics["loadgen.exact_match_frac"] = ratio(float64(allMatched), float64(len(checks)))
}

// build is how long one pass through buildLake took.
type build struct {
	chunkRates             []float64 // models per second, one per preload chunk
	preload, reopen, total time.Duration
}

// buildLake is the part of set-up that does not need a client: open an empty
// lake of the workload's shape in dir, preload it, Close, and reopen it — the
// path `serve` takes. It returns the reopened lake.
func buildLake(wl *workload, dir string, p *population) (target, build, error) {
	var b build
	start := time.Now()
	t, err := openTarget(wl.kind, dir, wl.writer)
	if err != nil {
		return nil, b, fmt.Errorf("open %s: %w", wl.kind, err)
	}
	preloadStart := time.Now()
	if b.chunkRates, err = ingestChunks(t, p); err != nil {
		t.Close()
		return nil, b, err
	}
	b.preload = time.Since(preloadStart)
	if err = t.Close(); err != nil {
		return nil, b, fmt.Errorf("close after preload: %w", err)
	}
	reopenStart := time.Now()
	if t, err = openTarget(wl.kind, dir, wl.writer); err != nil {
		return nil, b, fmt.Errorf("reopen: %w", err)
	}
	b.reopen, b.total = time.Since(reopenStart), time.Since(start)
	return t, b, nil
}

// timedMetrics turns the pooled timed-pass recorder and the obs delta around
// it into end-to-end and counter-derived layer metrics.
func timedMetrics(m metrics, r *recorder, before, after snapshot) {
	busy := r.busiest()
	var counts []float64
	for w := range busy {
		counts = append(counts, float64(r.windows[w-1]))
	}
	m["loadgen.throughput_rps"] = median(counts)
	for _, c := range []class{clsRelated, clsKeyword, clsPoint} {
		lat := r.in(c, busy)
		m[className[c]+"_p10_ms"] = quantile(lat, 0.10)
		m[className[c]+"_p50_ms"] = median(lat)
	}
	for _, c := range []class{clsRelated, clsRelatedHot, clsKeyword, clsPoint, clsMLQL, clsIngestBatch} {
		name := className[c]
		m["loadgen."+name+".p50_all_ms"] = median(r.lat[c])
		m["loadgen."+name+".p99_ms"] = quantile(r.lat[c], 0.99)
		m["loadgen."+name+".n"] = float64(len(r.lat[c]))
	}
	m["loadgen.writer_lateness_p99_ms"] = quantile(r.lateness, 0.99)
	m["server.related.resp_bytes"] = float64(r.respBytes)

	d := func(name, label string) float64 { return delta(before, after, name, label) }
	m["server.shed_total"] = d("http_load_shed_total", "")
	m["server.timeouts_total"] = d("http_request_timeouts_total", "")
	m["server.encode_errors_total"] = d("http_response_encode_errors_total", "")
	qh, qm := d("lake_query_cache_hits_total", ""), d("lake_query_cache_misses_total", "")
	m["lake.qcache.hit_ratio"] = ratio(qh, qh+qm)
	eh, em := d("lake_embed_cache_hits_total", ""), d("lake_embed_cache_misses_total", "")
	m["embedding.cache.hit_ratio"] = ratio(eh, eh+em)
	kw := d("keyword_searches_total", "")
	scanned, skipped := d("keyword_seg_blocks_scanned_total", ""), d("keyword_seg_blocks_skipped_total", "")
	m["search.keyword.blocks_scanned_per_query"] = ratio(scanned, kw)
	m["search.keyword.block_skip_ratio"] = ratio(skipped, scanned+skipped)
	m["search.keyword.lock_wait_us_per_query"] = ratio(d("keyword_search_lock_wait_seconds_sum", "")*1e6, kw)
	m["search.keyword.merges_total"] = d("keyword_seg_merges_total", "")
	m["search.keyword.merge_s_total"] = d("keyword_seg_merge_seconds_sum", "")
	m["search.keyword.demotes_total"] = d("keyword_seg_demotes_total", "")
	searches := d("ann_searches_total", "")
	m["index.candidates_per_search"] = ratio(d("ann_candidates_scanned_total", ""), searches)
	m["index.flat.candidates_per_search"] = ratio(d("ann_candidates_scanned_total", `kind="flat"`), searches)
	m["index.pq.lut_builds_per_search"] = ratio(d("ann_pq_lut_builds_total", ""), searches)
	m["cluster.failover_reads_total"] = d("cluster_failover_reads_total", "")
	m["cluster.writes_rejected_total"] = d("cluster_writes_rejected_total", "")
	m["cluster.replica_lag_bytes_max"] = gaugeMax(after, "cluster_replica_lag_bytes")
	m["retry.retried_total"] = d("retry_attempts_retried_total", "")
	m["kvstore.rollbacks_total"] = d("kvstore_rollbacks_total", "")
}

// writeMetrics reports the storage work of the timed writes per model acked.
func writeMetrics(m metrics, before, after snapshot, written, logBytes, blobBytes float64) {
	d := func(name, label string) float64 { return delta(before, after, name, label) }
	kvFsyncs, blobFsyncs := d("kvstore_fsync_duration_seconds_count", ""), d("blob_fsync_duration_seconds_count", "")
	m["kvstore.appends_per_model"] = ratio(d("kvstore_append_duration_seconds_count", ""), written)
	m["kvstore.fsyncs_per_model"] = ratio(kvFsyncs, written)
	m["kvstore.append_ms_per_model"] = ratio(d("kvstore_append_duration_seconds_sum", "")*1e3, written)
	m["kvstore.fsync_ms_per_model"] = ratio(d("kvstore_fsync_duration_seconds_sum", "")*1e3, written)
	m["kvstore.commit_batch_mean"] = ratio(d("kvstore_commit_batch_size_sum", ""), d("kvstore_commit_batch_size_count", ""))
	m["kvstore.log_bytes_per_model"] = ratio(logBytes, written)
	m["blob.puts_per_model"] = ratio(d("blob_put_duration_seconds_count", ""), written)
	m["blob.fsyncs_per_model"] = ratio(blobFsyncs, written)
	m["blob.put_ms_per_model"] = ratio(d("blob_put_duration_seconds_sum", "")*1e3, written)
	m["blob.fsync_ms_per_model"] = ratio(d("blob_fsync_duration_seconds_sum", "")*1e3, written)
	m["blob.bytes_per_model"] = ratio(blobBytes, written)
	m["loadgen.fsyncs_per_model"] = ratio(kvFsyncs+blobFsyncs, written)
}

// check is one sampled request, the bytes the served lake answered and the
// bytes the reference lake answers.
type check struct {
	req       request
	got, want []byte
}

// shortlisted reports whether a class of answers comes through a PQ
// shortlist on this workload. Everywhere else every sampled answer must equal
// the reference's bytes — the repo's signature is that pruned, sharded and
// failed-over answers are bitwise-identical to the exact scan. The PQ tier
// keeps that promise only "whenever the true top-k survives the shortlist
// cut" (lake.Config.Quantize), and at the default RescoreFactor of 8 it does
// not always: over ten seeds and every id as the query, 46–101 of 4160
// related answers differ, and 987–1161 of 8768 once the write workload's
// models have been coded with the codebook trained on the first 4160. A
// factor that makes them all equal exists (128; 64 leaves 0–2) but makes
// related seven times slower (1.99 against 0.28 ms), which would turn the
// workload into a pread benchmark nobody runs. So the workloads keep the
// default, a differing answer must be what a shortlist miss looks like —
// exact scores, exact order, only worse neighbours let in (recallMiss) — and
// recall@10 over the 512 sampled answers of both classes is held to a floor
// under the lowest seen: 0.985 on the read workload (30 seeds: 0.9928–1,
// mean 0.998) and 0.95 on the write workload (20 seeds: 0.9715–0.9885, mean
// 0.980). One class alone is too few answers: misses come by the family, and
// 256 related_hot answers ranged 0.955–0.992.
// MLQL ranks with k = Count(), which rescores every row, and must be equal.
func (wl *workload) shortlisted(c class) bool {
	return wl.recallFloor > 0 && (c == clsRelated || c == clsRelatedHot)
}

// scoredHit is one entry of a related reply.
type scoredHit struct {
	ID    string
	Score float64 // minus the distance: higher is nearer
}

func scoredHits(body []byte) []scoredHit {
	var hits []scoredHit
	if json.Unmarshal(body, &hits) != nil {
		return nil
	}
	return hits
}

// recallMiss counts how many of want's ids got found, and reports an error
// unless got is the exact top-k of some subset of the rows that holds those
// ids: in descending order, every id it shares with want carrying the same
// score bit for bit, and every other id scoring no better than want's last.
func recallMiss(got, want []scoredHit) (found, wanted int, err error) {
	score := make(map[string]float64, len(want))
	for _, h := range want {
		score[h.ID] = h.Score
	}
	if len(got) != len(want) {
		err = fmt.Errorf("%d hits, reference has %d", len(got), len(want))
	}
	for i, h := range got {
		s, ok := score[h.ID]
		switch {
		case ok:
			found++
			if s != h.Score {
				err = fmt.Errorf("%s scored %v, reference scores it %v", h.ID, h.Score, s)
			}
		case len(want) > 0 && h.Score > want[len(want)-1].Score:
			err = fmt.Errorf("%s scored %v is not in the reference's top %d, which ends at %v", h.ID, h.Score, len(want), want[len(want)-1].Score)
		}
		if i > 0 && got[i-1].Score < h.Score {
			err = fmt.Errorf("hits %d and %d are out of order", i-1, i)
		}
	}
	return found, len(want), err
}

// sameAnswer wants byte equality. The one field allowed to differ is a
// record's seq, a logical clock that is per shard in a cluster.
func sameAnswer(ck check) bool {
	if bytes.Equal(ck.got, ck.want) {
		return true
	}
	if ck.req.cls != clsPoint {
		return false
	}
	var got, want map[string]any
	if json.Unmarshal(ck.got, &got) != nil || json.Unmarshal(ck.want, &want) != nil {
		return false
	}
	delete(got, "seq")
	delete(want, "seq")
	return reflect.DeepEqual(got, want)
}

// oneLine strips a JSON body's indentation for the log.
func oneLine(b []byte) []byte {
	var out bytes.Buffer
	if json.Compact(&out, b) != nil {
		return b
	}
	return out.Bytes()
}

// sampleRequests draws the requests whose answers are checked, on a stream
// of their own.
func sampleRequests(s *schedule, sc scale, models int) []check {
	var out []check
	for _, c := range []class{clsRelated, clsRelatedHot, clsKeyword, clsPoint, clsMLQL} {
		n := sc.verifyPerClass
		if c == clsMLQL {
			n = sc.verifyMLQL
		}
		for i := 0; i < n; i++ {
			out = append(out, check{req: s.of(c, 20, i, models)})
		}
	}
	return out
}

// referenceAnswers feeds a plain in-memory lake the same population in the
// same order — the preload through IngestAll, the writer's batches through
// the reference's own handler — and renders every check with the server's
// own encoder.
func referenceAnswers(p *population, batches [][]byte, checks []check) error {
	ref, err := openReference()
	if err != nil {
		return fmt.Errorf("open reference lake: %w", err)
	}
	defer ref.Close()
	if _, err := ingestChunks(ref, p); err != nil {
		return fmt.Errorf("reference lake: %w", err)
	}
	cfg := server.DefaultConfig()
	cfg.AccessLog = io.Discard
	h := server.NewWith(ref, cfg).Handler()
	for _, body := range batches {
		if code, resp := handlerBody(h, "/v1/models/batch", body); code != http.StatusCreated {
			return fmt.Errorf("reference lake: batch ingest answered %d: %.200s", code, resp)
		}
	}
	for i := range checks {
		code, body := handlerBody(h, checks[i].req.path, nil)
		if code != http.StatusOK {
			return fmt.Errorf("reference lake: GET %s answered %d: %.200s", checks[i].req.path, code, body)
		}
		checks[i].want = append([]byte(nil), body...)
	}
	return nil
}
