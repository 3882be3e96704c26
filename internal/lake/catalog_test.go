package lake

import (
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"modellake/internal/benchmark"
	"modellake/internal/lakegen"
	"modellake/internal/mlql"
)

// registerBenchmarks registers fill's benchmarks, one per base domain, plus
// "tiny": two examples, so scores tie in threes.
func registerBenchmarks(l *Lake, pop *lakegen.Population) {
	for _, m := range pop.Members {
		if m.Truth.Depth == 0 {
			ds := pop.Datasets[m.Truth.DatasetID]
			l.RegisterBenchmark(&benchmark.Benchmark{ID: "bench-" + m.Truth.Domain, DS: ds, Metric: benchmark.MetricAccuracy})
		}
	}
	ds := pop.Datasets[pop.Members[0].Truth.DatasetID]
	l.RegisterBenchmark(&benchmark.Benchmark{ID: "tiny", DS: ds.Subset([]int{0, 1}), Metric: benchmark.MetricAccuracy})
}

// TestCachedScoresLoadNoModels: once a reopened lake has scored a benchmark,
// OUTPERFORMS and RANK BY SCORE over it read the cached scores — the same
// answers, no weights blob read, no model loaded — and a ranking full of
// ties comes out in the (score desc, ID asc) order an insertion sort gives.
func TestCachedScoresLoadNoModels(t *testing.T) {
	pop := population(t, 63)
	cfg := Config{Dir: t.TempDir(), Seed: 1}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := fill(t, l, pop)
	queries := []string{
		fmt.Sprintf("FIND MODELS WHERE OUTPERFORMS MODEL '%s' ON BENCHMARK 'bench-legal'", ids[1]),
		"FIND MODELS RANK BY SCORE ON BENCHMARK 'bench-legal'",
		"FIND MODELS RANK BY SCORE ON BENCHMARK 'tiny'",
	}
	answers := func(l *Lake) []string {
		t.Helper()
		var out []string
		for _, q := range queries {
			res, err := l.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		return out
	}
	var want []string
	for _, stage := range []string{"scoring", "cached"} {
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if l, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
		registerBenchmarks(l, pop)
		gets := blobGets()
		got := answers(l)
		if stage == "scoring" {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s\ncached answer %s\nscored answer %s", queries[i], got[i], want[i])
			}
		}
		if n := blobGets() - gets; n != 0 {
			t.Fatalf("cached scores read %d weights blobs", n)
		}
		if n := len(cachedModels(l)); n != 0 {
			t.Fatalf("cached scores loaded %d models", n)
		}
	}
	defer l.Close()

	res, err := l.Query(queries[2])
	if err != nil {
		t.Fatal(err)
	}
	ref := append([]mlql.Hit(nil), res.Hits...)
	slices.Reverse(ref) // and insertion-sort it back
	for i := 1; i < len(ref); i++ {
		for j := i; j > 0 && (ref[j].Score > ref[j-1].Score ||
			(ref[j].Score == ref[j-1].Score && ref[j].ID < ref[j-1].ID)); j-- {
			ref[j], ref[j-1] = ref[j-1], ref[j]
		}
	}
	ties := 0
	for i := 1; i < len(ref); i++ {
		if ref[i].Score == ref[i-1].Score {
			ties++
		}
	}
	if ties < len(ref)/2 {
		t.Fatalf("only %d ties in %d hits: the fixture is vacuous", ties, len(ref))
	}
	if fmt.Sprint(res.Hits) != fmt.Sprint(ref) {
		t.Fatalf("ranking %v, insertion-sort order %v", res.Hits, ref)
	}
}
