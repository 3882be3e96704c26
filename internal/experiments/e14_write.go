package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"modellake/internal/card"
	"modellake/internal/fault"
	"modellake/internal/kvstore"
	"modellake/internal/lake"
	"modellake/internal/model"
	"modellake/internal/nn"
	"modellake/internal/registry"
	"modellake/internal/xrand"
)

// E14 measures the write-path overhaul end to end: group commit and atomic
// batch records against the pre-overhaul one-fsync-per-key discipline, and
// how fast a lake reopens from its vec records.
//
// The ingest arms all commit the *same durable state* — the exact live
// key/value set a real ingest produces — so the comparison isolates the
// write path:
//
//   - "legacy per-op" replays every key as its own Put on a Sync store:
//     one record, one fsync per key. This is the shape of the pre-overhaul
//     registration path (record, vectors, and each provenance entry were
//     separate durable writes).
//   - "group commit" issues the same per-key Puts from concurrent writers;
//     the commit leader coalesces whatever piles up behind each fsync.
//   - "batch apply" commits the keys in large atomic batch records — the
//     path bulk ingest actually uses.
//
// The open arm builds one durable lake and times Open on it.

// WriteBenchResult is the machine-readable summary cmd/lakebench writes to
// BENCH_write.json. Durations are nanoseconds.
type WriteBenchResult struct {
	IngestModels int `json:"ingest_models"`
	MetaKeys     int `json:"meta_keys"`

	LegacyPerOpNs     int64 `json:"legacy_per_op_ns"`
	LegacyFsyncs      int   `json:"legacy_fsyncs"`
	GroupCommitNs     int64 `json:"group_commit_ns"`
	GroupCommitFsyncs int   `json:"group_commit_fsyncs"`
	BatchApplyNs      int64 `json:"batch_apply_ns"`
	BatchApplyFsyncs  int   `json:"batch_apply_fsyncs"`
	// IngestSpeedup is legacy-per-op over batch-apply wall time: the
	// headline "durable bulk ingest" win (target ≥ 2x).
	IngestSpeedup float64 `json:"ingest_speedup"`
	// GroupCommitSpeedup is legacy-per-op over group-commit wall time:
	// the win for concurrent writers that keep the per-op API.
	GroupCommitSpeedup float64 `json:"group_commit_speedup"`

	// Full-pipeline context: serial atomic-Ingest loop vs IngestAll on a
	// durable (Sync) lake, embedding cost included, with observed
	// fsyncs-per-model for each.
	SerialIngestNs       int64   `json:"serial_ingest_ns"`
	BatchIngestNs        int64   `json:"batch_ingest_ns"`
	SerialFsyncsPerModel float64 `json:"serial_fsyncs_per_model"`
	BatchFsyncsPerModel  float64 `json:"batch_fsyncs_per_model"`

	OpenModels int   `json:"open_models"`
	FastOpenNs int64 `json:"fast_open_ns"`
}

// RunE14 is the experiment-index entry point with default sizes.
func RunE14(seed uint64) (*Table, error) {
	t, _, err := RunE14Write(seed, 0, 0)
	return t, err
}

// e14Items generates n small open-weights models with cards — the ingest
// workload. Everything is seeded, so every arm commits identical content.
func e14Items(seed uint64, n int) []lake.IngestItem {
	rng := xrand.New(seed)
	items := make([]lake.IngestItem, n)
	for i := range items {
		net := nn.NewMLP([]int{8, 8, 8}, nn.ReLU, rng)
		m := &model.Model{Name: fmt.Sprintf("m%06d", i), Net: net}
		c := &card.Card{
			Name:         m.Name,
			Domain:       []string{"vision", "text", "tabular"}[i%3],
			TrainingData: fmt.Sprintf("ds-%d", i%7),
			Description:  "write-path benchmark model",
		}
		items[i] = lake.IngestItem{Model: m, Card: c,
			Opts: registry.RegisterOptions{Version: "1"}}
	}
	return items
}

// countFsyncs counts durable flushes (file fsync + directory fsync) in a
// recorded op stream.
func countFsyncs(rec *fault.Recorder) int {
	n := 0
	for _, op := range rec.Ops() {
		if op.Op == fault.OpSync || op.Op == fault.OpSyncDir {
			n++
		}
	}
	return n
}

// RunE14Write runs the write-path benchmark with nIngest models in the
// ingest arms and nOpen models in the reopen arm (0 = defaults: 240 and
// 10000).
func RunE14Write(seed uint64, nIngest, nOpen int) (*Table, *WriteBenchResult, error) {
	if nIngest <= 0 {
		nIngest = 240
	}
	if nOpen <= 0 {
		nOpen = 10000
	}
	res := &WriteBenchResult{IngestModels: nIngest, OpenModels: nOpen}
	t := &Table{
		ID:    "E14",
		Title: "write path: group commit, atomic batches, vec-record rehydrate",
		Columns: []string{"arm", "time", "models/s", "fsyncs", "fsyncs/model",
			"speedup"},
		Notes: "ingest arms commit identical durable state; the open arm rebuilds the indexes from vec records",
	}
	items := e14Items(seed, nIngest)

	// --- Full-pipeline arms: durable lakes with Sync on. -----------------
	serialNs, serialFsyncs, err := e14IngestArm(seed, items, false)
	if err != nil {
		return nil, nil, err
	}
	res.SerialIngestNs = serialNs.Nanoseconds()
	res.SerialFsyncsPerModel = float64(serialFsyncs) / float64(nIngest)

	batchNs, batchFsyncs, pairs, err := e14BatchIngestArm(seed, items)
	if err != nil {
		return nil, nil, err
	}
	res.BatchIngestNs = batchNs.Nanoseconds()
	res.BatchFsyncsPerModel = float64(batchFsyncs) / float64(nIngest)
	res.MetaKeys = len(pairs)

	t.AddRow("ingest serial (atomic/model)", serialNs.Round(time.Millisecond).String(),
		f2(float64(nIngest)/serialNs.Seconds()), fmt.Sprint(serialFsyncs),
		f2(res.SerialFsyncsPerModel), "1.00x")
	t.AddRow("ingest batch (IngestAll)", batchNs.Round(time.Millisecond).String(),
		f2(float64(nIngest)/batchNs.Seconds()), fmt.Sprint(batchFsyncs),
		f2(res.BatchFsyncsPerModel),
		fmt.Sprintf("%.2fx", float64(serialNs)/float64(batchNs)))

	// --- Write-path replay arms: same final key set, different discipline.
	legacyNs, legacyFsyncs, err := e14ReplayPerOp(pairs, 1)
	if err != nil {
		return nil, nil, err
	}
	res.LegacyPerOpNs = legacyNs.Nanoseconds()
	res.LegacyFsyncs = legacyFsyncs
	t.AddRow("meta legacy per-op fsync", legacyNs.Round(time.Millisecond).String(),
		f2(float64(nIngest)/legacyNs.Seconds()), fmt.Sprint(legacyFsyncs),
		f2(float64(legacyFsyncs)/float64(nIngest)), "1.00x")

	groupNs, groupFsyncs, err := e14ReplayPerOp(pairs, 16)
	if err != nil {
		return nil, nil, err
	}
	res.GroupCommitNs = groupNs.Nanoseconds()
	res.GroupCommitFsyncs = groupFsyncs
	res.GroupCommitSpeedup = float64(legacyNs) / float64(groupNs)
	t.AddRow("meta group commit (16 writers)", groupNs.Round(time.Millisecond).String(),
		f2(float64(nIngest)/groupNs.Seconds()), fmt.Sprint(groupFsyncs),
		f2(float64(groupFsyncs)/float64(nIngest)),
		fmt.Sprintf("%.2fx", res.GroupCommitSpeedup))

	applyNs, applyFsyncs, err := e14ReplayBatch(pairs)
	if err != nil {
		return nil, nil, err
	}
	res.BatchApplyNs = applyNs.Nanoseconds()
	res.BatchApplyFsyncs = applyFsyncs
	res.IngestSpeedup = float64(legacyNs) / float64(applyNs)
	t.AddRow("meta batch apply", applyNs.Round(time.Millisecond).String(),
		f2(float64(nIngest)/applyNs.Seconds()), fmt.Sprint(applyFsyncs),
		f2(float64(applyFsyncs)/float64(nIngest)),
		fmt.Sprintf("%.2fx", res.IngestSpeedup))

	// --- Open arm: one durable lake, reopened from its vec records. ------
	fastNs, err := e14OpenArm(seed, nOpen)
	if err != nil {
		return nil, nil, err
	}
	res.FastOpenNs = fastNs.Nanoseconds()
	t.AddRow(fmt.Sprintf("open fast (%d models)", nOpen),
		fastNs.Round(time.Millisecond).String(),
		f2(float64(nOpen)/fastNs.Seconds()), "-", "-", "-")
	return t, res, nil
}

// e14IngestArm times a full durable ingest of items; batch selects IngestAll
// over the serial Ingest loop. Returns wall time and observed fsync count.
func e14IngestArm(seed uint64, items []lake.IngestItem, batch bool) (time.Duration, int, error) {
	dir, err := os.MkdirTemp("", "e14-ingest-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	rec := &fault.Recorder{}
	l, err := lake.Open(lake.Config{Dir: dir, Sync: true, Seed: seed, FS: fault.New(rec)})
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	before := countFsyncs(rec)
	start := time.Now()
	if batch {
		_, errs := l.IngestAll(items, 0)
		for i, e := range errs {
			if e != nil {
				return 0, 0, fmt.Errorf("E14: batch ingest item %d: %w", i, e)
			}
		}
	} else {
		for i := range items {
			if _, err := l.Ingest(items[i].Model, items[i].Card, items[i].Opts); err != nil {
				return 0, 0, fmt.Errorf("E14: serial ingest item %d: %w", i, err)
			}
		}
	}
	elapsed := time.Since(start)
	return elapsed, countFsyncs(rec) - before, nil
}

// e14BatchIngestArm is e14IngestArm(batch) that additionally harvests the
// final metadata key/value set, which the replay arms re-commit under the
// legacy and batch write disciplines.
func e14BatchIngestArm(seed uint64, items []lake.IngestItem) (time.Duration, int, []kvstore.Op, error) {
	dir, err := os.MkdirTemp("", "e14-batch-*")
	if err != nil {
		return 0, 0, nil, err
	}
	defer os.RemoveAll(dir)
	rec := &fault.Recorder{}
	l, err := lake.Open(lake.Config{Dir: dir, Sync: true, Seed: seed, FS: fault.New(rec)})
	if err != nil {
		return 0, 0, nil, err
	}
	before := countFsyncs(rec)
	start := time.Now()
	_, errs := l.IngestAll(items, 0)
	elapsed := time.Since(start)
	fsyncs := countFsyncs(rec) - before
	for i, e := range errs {
		if e != nil {
			l.Close()
			return 0, 0, nil, fmt.Errorf("E14: batch ingest item %d: %w", i, e)
		}
	}
	if err := l.Close(); err != nil {
		return 0, 0, nil, err
	}
	// Harvest the live metadata set from the just-written log.
	kv, err := kvstore.Open(filepath.Join(dir, "lake.log"), kvstore.Options{})
	if err != nil {
		return 0, 0, nil, err
	}
	defer kv.Close()
	var pairs []kvstore.Op
	err = kv.Scan("", func(k string, v []byte) bool {
		cp := make([]byte, len(v))
		copy(cp, v)
		pairs = append(pairs, kvstore.Op{Key: k, Value: cp})
		return true
	})
	if err != nil {
		return 0, 0, nil, err
	}
	return elapsed, fsyncs, pairs, nil
}

// e14ReplayPerOp re-commits pairs to a fresh Sync store one Put per key from
// the given number of concurrent writers. One writer is the legacy
// one-fsync-per-key discipline; several writers exercise group commit.
func e14ReplayPerOp(pairs []kvstore.Op, writers int) (time.Duration, int, error) {
	dir, err := os.MkdirTemp("", "e14-replay-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	rec := &fault.Recorder{}
	s, err := kvstore.Open(filepath.Join(dir, "kv.log"),
		kvstore.Options{Sync: true, FS: fault.New(rec)})
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()
	start := time.Now()
	if writers <= 1 {
		for i := range pairs {
			if err := s.Put(pairs[i].Key, pairs[i].Value); err != nil {
				return 0, 0, err
			}
		}
	} else {
		var wg sync.WaitGroup
		errc := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(pairs); i += writers {
					if err := s.Put(pairs[i].Key, pairs[i].Value); err != nil {
						errc <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errc)
		if err := <-errc; err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start), countFsyncs(rec), nil
}

// e14ReplayBatch re-commits pairs as large atomic batch records — the bulk
// ingest discipline: one record, one fsync per ~1000-key chunk.
func e14ReplayBatch(pairs []kvstore.Op) (time.Duration, int, error) {
	dir, err := os.MkdirTemp("", "e14-apply-*")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	rec := &fault.Recorder{}
	s, err := kvstore.Open(filepath.Join(dir, "kv.log"),
		kvstore.Options{Sync: true, FS: fault.New(rec)})
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()
	const chunk = 1000
	start := time.Now()
	for at := 0; at < len(pairs); at += chunk {
		end := at + chunk
		if end > len(pairs) {
			end = len(pairs)
		}
		if err := s.Apply(pairs[at:end]); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start), countFsyncs(rec), nil
}

// e14OpenArm builds one durable lake with nOpen models and times reopening
// it (parallel workers + vec records): the median of three runs, robust to
// both a cold first run and a single lucky one.
func e14OpenArm(seed uint64, nOpen int) (time.Duration, error) {
	dir, err := os.MkdirTemp("", "e14-open-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	// The build can skip per-write fsyncs: Open replays the same log either
	// way, and building 10k models with Sync would dominate the experiment.
	l, err := lake.Open(lake.Config{Dir: dir, Seed: seed})
	if err != nil {
		return 0, err
	}
	_, errs := l.IngestAll(e14Items(seed+1, nOpen), 0)
	for i, e := range errs {
		if e != nil {
			l.Close()
			return 0, fmt.Errorf("E14: open-arm ingest item %d: %w", i, e)
		}
	}
	if err := l.Close(); err != nil {
		return 0, err
	}
	var runs []time.Duration
	for rep := 0; rep < 3; rep++ {
		// The build phase leaves GC debt behind; collect it outside the
		// timed region.
		runtime.GC()
		start := time.Now()
		lk, err := lake.Open(lake.Config{Dir: dir, Seed: seed})
		if err != nil {
			return 0, err
		}
		el := time.Since(start)
		n := lk.Count()
		lk.Close()
		if n != nOpen {
			return 0, fmt.Errorf("E14: reopened lake has %d models, want %d", n, nOpen)
		}
		runs = append(runs, el)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i] < runs[j] })
	return runs[len(runs)/2], nil
}
