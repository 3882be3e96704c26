package experiments

import (
	"os"
	"testing"
)

// TestE17Shape runs the keyword benchmark at a toy size and pins its
// acceptance properties: the pruned path answers bitwise-identically to the
// exhaustive map scorer, segments actually form (blocks get decoded), and
// the segment path reports a smaller postings heap than the map tier.
func TestE17Shape(t *testing.T) {
	tab, res, err := RunE17Keyword(testSeed(), []int{2000}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 { // map, pruned
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}
	byKind := map[string]KeywordPoint{}
	for _, p := range res.Points {
		byKind[p.Kind] = p
		if !p.IdenticalTopK {
			t.Fatalf("path %s diverged from the map scorer: %+v", p.Kind, p)
		}
		if p.QPS <= 0 || p.P50Ns <= 0 || p.P99Ns < p.P50Ns {
			t.Fatalf("path %s reported implausible timings: %+v", p.Kind, p)
		}
		if p.PostingsHeapBytes <= 0 {
			t.Fatalf("path %s reported no postings heap: %+v", p.Kind, p)
		}
	}
	p := byKind["pruned"]
	if p.BlocksScanned == 0 {
		t.Fatalf("pruned path never decoded a block; the segment tier did not engage: %+v", p)
	}
	if p.PostingsHeapBytes >= byKind["map"].PostingsHeapBytes {
		t.Fatalf("pruned postings heap %d not below map tier's %d",
			p.PostingsHeapBytes, byKind["map"].PostingsHeapBytes)
	}
}

// TestKeywordSmoke100k is the full-scale acceptance gate for the keyword
// read path: at 100k documents the segment-backed scorer must answer
// bitwise-identically to the map scorer while being at least 2x faster and
// holding a postings heap at least 4x smaller.
// Minutes-scale, so it only runs when MODELLAKE_SCALE_SMOKE is set (the CI
// bench job sets it; local runs opt in explicitly).
func TestKeywordSmoke100k(t *testing.T) {
	if os.Getenv("MODELLAKE_SCALE_SMOKE") == "" {
		t.Skip("set MODELLAKE_SCALE_SMOKE=1 to run the 100k keyword smoke test")
	}
	_, res, err := RunE17Keyword(42, []int{100_000}, 300)
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[string]KeywordPoint{}
	for _, p := range res.Points {
		byKind[p.Kind] = p
		if !p.IdenticalTopK {
			t.Fatalf("path %s diverged at 100k: %+v", p.Kind, p)
		}
	}
	mp, pruned := byKind["map"], byKind["pruned"]
	if pruned.QPS < 2*mp.QPS {
		t.Fatalf("pruned keyword QPS %.1f is under 2x the map scorer's %.1f", pruned.QPS, mp.QPS)
	}
	if pruned.PostingsHeapBytes*4 > mp.PostingsHeapBytes {
		t.Fatalf("pruned postings heap %d is not a 4x reduction from the map tier's %d",
			pruned.PostingsHeapBytes, mp.PostingsHeapBytes)
	}
}
