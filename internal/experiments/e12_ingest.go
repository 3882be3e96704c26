package experiments

import (
	"fmt"
	"runtime"
	"time"

	"modellake/internal/lake"
	"modellake/internal/lakegen"
	"modellake/internal/registry"
)

// IngestBenchResult is the machine-readable summary cmd/lakebench writes to
// BENCH_ingest.json so CI can track ingest throughput over time. All
// durations are nanoseconds; Speedup is serial/parallel wall time for the
// requested parallelism.
type IngestBenchResult struct {
	NModels       int     `json:"n_models"`
	Parallelism   int     `json:"parallelism"`
	SerialNs      int64   `json:"serial_ns"`
	ParallelNs    int64   `json:"parallel_ns"`
	Speedup       float64 `json:"speedup"`
	IdenticalTopK bool    `json:"identical_topk"`
}

// RunE12 is the experiment-index entry point; it benchmarks at the machine's
// GOMAXPROCS alongside the fixed sweep points.
func RunE12(seed uint64) (*Table, error) {
	t, _, err := RunE12Ingest(seed, 0)
	return t, err
}

// RunE12Ingest measures the parallel ingest-and-index pipeline against the
// serial Ingest loop on the same population, and verifies the acceptance
// property the pipeline is built around: parallel ingest must be faster AND
// answer content searches identically to serial ingest (embedding commits
// happen in input order, so the index is the same object either way).
//
// parallelism <= 0 means GOMAXPROCS. The returned result describes the run
// at the requested parallelism; the table additionally sweeps 1, 2, and 4
// workers so the scaling shape is visible in one rendering.
func RunE12Ingest(seed uint64, parallelism int) (*Table, *IngestBenchResult, error) {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	t := &Table{
		ID:      "E12",
		Title:   "parallel ingest pipeline vs serial loop (fresh lake per run)",
		Columns: []string{"workers", "ingest", "models/s", "speedup", "identical top-k"},
		Notes:   "expected shape: near-linear speedup until workers ~ cores; top-k always identical",
	}

	spec := lakegen.DefaultSpec(seed)
	spec.NumBases = 4
	spec.ChildrenPerBase = 7
	pop, err := lakegen.Generate(spec)
	if err != nil {
		return nil, nil, err
	}
	n := len(pop.Members)

	// A high probe count makes behavioural embedding the dominant ingest
	// cost, which is the regime the pipeline exists for (real model lakes
	// embed with forward passes, not 32 probes over a toy MLP).
	cfg := lake.Config{Seed: seed, Probes: 4096}

	// Serial baseline: the classic one-model-at-a-time Ingest loop.
	serial, err := lake.Open(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer serial.Close()
	serialStart := time.Now()
	for _, m := range pop.Members {
		if _, err := serial.Ingest(m.Model, m.Card, registry.RegisterOptions{
			Name: m.Truth.Name, Version: "1",
		}); err != nil {
			return nil, nil, err
		}
	}
	serialNs := time.Since(serialStart)
	t.AddRow("serial", serialNs.Round(time.Millisecond).String(),
		f2(float64(n)/serialNs.Seconds()), "1.00x", "-")

	items := make([]lake.IngestItem, n)
	for i, m := range pop.Members {
		items[i] = lake.IngestItem{Model: m.Model, Card: m.Card,
			Opts: registry.RegisterOptions{Name: m.Truth.Name, Version: "1"}}
	}

	sweep := []int{1, 2, 4}
	requested := true
	for _, p := range sweep {
		if p == parallelism {
			requested = false
		}
	}
	if requested {
		sweep = append(sweep, parallelism)
	}

	var result *IngestBenchResult
	for _, p := range sweep {
		lk, err := lake.Open(cfg)
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		recs, errs := lk.IngestAll(items, p)
		elapsed := time.Since(start)
		for i, e := range errs {
			if e != nil {
				lk.Close()
				return nil, nil, fmt.Errorf("E12: parallel ingest item %d: %w", i, e)
			}
		}

		identical := true
		for _, rec := range recs {
			for _, space := range []string{"behavior", "weights"} {
				want, err := serial.SearchByModel(rec.ID, space, 10)
				if err != nil {
					lk.Close()
					return nil, nil, err
				}
				got, err := lk.SearchByModel(rec.ID, space, 10)
				if err != nil {
					lk.Close()
					return nil, nil, err
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					identical = false
				}
			}
		}
		lk.Close()

		speedup := float64(serialNs) / float64(elapsed)
		t.AddRow(fmt.Sprint(p), elapsed.Round(time.Millisecond).String(),
			f2(float64(n)/elapsed.Seconds()), fmt.Sprintf("%.2fx", speedup),
			fmt.Sprint(identical))
		if p == parallelism {
			result = &IngestBenchResult{
				NModels:       n,
				Parallelism:   p,
				SerialNs:      serialNs.Nanoseconds(),
				ParallelNs:    elapsed.Nanoseconds(),
				Speedup:       speedup,
				IdenticalTopK: identical,
			}
		}
	}
	return t, result, nil
}
