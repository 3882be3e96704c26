package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"modellake/internal/lake"
	"modellake/internal/registry"
	"modellake/internal/search"
)

// sameHits asserts two hit lists are bitwise-identical: same IDs in the
// same order with the same float64 score bits.
func sameHits(t *testing.T, label string, single, clustered []search.Hit) {
	t.Helper()
	if len(single) != len(clustered) {
		t.Fatalf("%s: single %d hits, cluster %d hits\nsingle:  %v\ncluster: %v",
			label, len(single), len(clustered), single, clustered)
	}
	for i := range single {
		if single[i].ID != clustered[i].ID ||
			math.Float64bits(single[i].Score) != math.Float64bits(clustered[i].Score) {
			t.Fatalf("%s: rank %d differs\nsingle:  %+v (bits %x)\ncluster: %+v (bits %x)",
				label, i, single[i], math.Float64bits(single[i].Score),
				clustered[i], math.Float64bits(clustered[i].Score))
		}
	}
}

// sameJSON asserts two answers encode to the same JSON bytes.
func sameJSON(t *testing.T, label string, single, clustered any) {
	t.Helper()
	sb, err := json.Marshal(single)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := json.Marshal(clustered)
	if err != nil {
		t.Fatal(err)
	}
	if string(sb) != string(cb) {
		t.Fatalf("%s differs\nsingle:  %s\ncluster: %s", label, sb, cb)
	}
}

// TestClusterSearchBitwiseEqualsSingleNode is the tentpole property test:
// the same model stream ingested into a single lake and into a sharded
// cluster of 1, 2 or 4 shards must answer every search modality identically
// — same IDs, same order, same score bits, same tie-breaks — and the
// applications (Model Graph, citation, documentation draft, audit) with the
// same bytes, both with all leaders up and with a shard served by its
// promoted replica. The guarantee holds for the default exact flat index
// (HNSW is approximate and exempt by design).
func TestClusterSearchBitwiseEqualsSingleNode(t *testing.T) {
	seeds := []uint64{101, 202}
	if testing.Short() {
		seeds = seeds[:1]
	}
	// The cluster runs once with the default in-memory map postings and once
	// with segment-backed postings (threshold 4 so merges actually happen
	// at test sizes); the single-node reference stays on the
	// map scorer both times, so the second variant pins that the two-phase
	// keyword path through block-max pruned segments — including failover
	// reads and post-promotion writes — is bitwise-identical to exhaustive
	// single-node scoring.
	variants := []struct {
		name  string
		tweak func(*lake.Config)
	}{
		{"map-postings", func(*lake.Config) {}},
		{"segment-postings", func(c *lake.Config) { c.KeywordMergeThreshold = 4 }},
	}
	for _, seed := range seeds {
		for _, v := range variants {
			seed, v := seed, v
			t.Run(fmt.Sprintf("seed-%d/%s", seed, v.name), func(t *testing.T) {
				for _, shards := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
						testClusterEqualsSingleNode(t, seed, shards, v.tweak)
					})
				}
			})
		}
	}
}

func testClusterEqualsSingleNode(t *testing.T, seed uint64, shards int, tweak func(*lake.Config)) {
	pop := testPopulation(t, seed, 3, 3)

	single, err := lake.Open(lake.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sids := fillLake(t, single, pop)

	clusterLake := lake.Config{Sync: true, Seed: 7}
	tweak(&clusterLake)
	c, err := Open(Config{
		Dir:    t.TempDir(),
		Shards: shards,
		Lake:   clusterLake,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cids := fillCluster(t, c, pop)

	// Serial ingest of the same stream mints identical IDs, which
	// the bitwise search comparisons below depend on.
	for i := range sids {
		if sids[i] != cids[i] {
			t.Fatalf("member %d: single ID %s, cluster ID %s", i, sids[i], cids[i])
		}
	}
	if single.Count() != c.Count() {
		t.Fatalf("counts differ: single %d cluster %d", single.Count(), c.Count())
	}

	compare := func(phase string) {
		t.Helper()
		for _, q := range []string{"legal statute court", "vision transformer", "summarization fine tuned"} {
			for _, k := range []int{1, 4, len(sids) + 3} {
				label := fmt.Sprintf("%s keyword %q k=%d", phase, q, k)
				ch, err := c.SearchKeywordContext(context.Background(), q, k)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameHits(t, label, single.SearchKeyword(q, k), ch)
			}
		}
		for _, space := range []string{"behavior", "weights"} {
			for i, id := range sids {
				if i%3 != 0 { // every third model as query keeps runtime sane
					continue
				}
				for _, k := range []int{3, len(sids)} {
					label := fmt.Sprintf("%s vector %s id=%s k=%d", phase, space, id, k)
					sh, err := single.SearchByModel(id, space, k)
					if err != nil {
						t.Fatalf("%s single: %v", label, err)
					}
					chits, err := c.SearchByModel(id, space, k)
					if err != nil {
						t.Fatalf("%s cluster: %v", label, err)
					}
					sameHits(t, label, sh, chits)
				}
			}
		}
		var bench string
		for _, m := range pop.Members {
			if m.Truth.Depth == 0 {
				bench = "bench-" + m.Truth.Domain
				break
			}
		}
		queries := []string{
			fmt.Sprintf("FIND MODELS WHERE TRAINED ON DATASET '%s'", pop.Members[0].Truth.DatasetID),
			fmt.Sprintf("FIND MODELS WHERE TRAINED ON VERSIONS OF DATASET '%s'", pop.Members[0].Truth.DatasetID),
			fmt.Sprintf("FIND MODELS WHERE OUTPERFORMS MODEL '%s' ON BENCHMARK '%s'", sids[0], bench),
			fmt.Sprintf("FIND MODELS RANK BY SIMILARITY TO MODEL '%s' USING BEHAVIOR LIMIT 5", sids[1]),
			fmt.Sprintf("FIND MODELS RANK BY SCORE ON BENCHMARK '%s' LIMIT 6", bench),
			"FIND MODELS RANK BY TEXT 'legal summarization'",
			"FIND MODELS WHERE DOMAIN = 'legal' LIMIT 10",
			fmt.Sprintf("FIND MODELS WHERE DOMAIN = 'legal' RANK BY SIMILARITY TO MODEL '%s' USING BEHAVIOR LIMIT 5", sids[0]),
		}
		for _, q := range queries {
			label := phase + " mlql " + q
			sres, err := single.Query(q)
			if err != nil {
				t.Fatalf("%s single: %v", label, err)
			}
			cres, err := c.Query(q)
			if err != nil {
				t.Fatalf("%s cluster: %v", label, err)
			}
			if len(sres.Hits) != len(cres.Hits) {
				t.Fatalf("%s: single %d hits, cluster %d", label, len(sres.Hits), len(cres.Hits))
			}
			for i := range sres.Hits {
				if sres.Hits[i].ID != cres.Hits[i].ID ||
					math.Float64bits(sres.Hits[i].Score) != math.Float64bits(cres.Hits[i].Score) {
					t.Fatalf("%s: rank %d differs: single %+v cluster %+v",
						label, i, sres.Hits[i], cres.Hits[i])
				}
			}
		}
	}

	// The applications read the whole population through one
	// view, so the cluster's answers are the single node's bytes.
	// A citation's Snapshot is the record's seq on the store that
	// holds it, a shard's own counter on a cluster.
	flagged := map[string]string{sids[0]: "poisoned base"}
	compareApps := func(phase string) {
		t.Helper()
		ctx := context.Background()
		sg, err := single.VersionGraphContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		cg, err := c.VersionGraphContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(sg.Edges) == 0 {
			t.Fatalf("%s: vacuous fixture: the single node recovers no edges", phase)
		}
		sameJSON(t, phase+" graph", sg, cg)
		recs, err := single.Records()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			id := rec.ID
			scite, err := single.Cite(id)
			if err != nil {
				t.Fatal(err)
			}
			ccite, err := c.Cite(id)
			if err != nil {
				t.Fatal(err)
			}
			scite.Snapshot, ccite.Snapshot = 0, 0
			sameJSON(t, phase+" cite "+id, scite, ccite)
			sd, err := single.GenerateCardContext(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			cd, err := c.GenerateCardContext(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			sameJSON(t, phase+" draft "+id, sd, cd)
			sa, err := single.AuditContext(ctx, id, flagged)
			if err != nil {
				t.Fatal(err)
			}
			ca, err := c.AuditContext(ctx, id, flagged)
			if err != nil {
				t.Fatal(err)
			}
			sameJSON(t, phase+" audit "+id, sa, ca)
		}
	}

	compare("leaders-up")
	compareApps("leaders-up")

	// The same comparisons must hold after a shard fails over to its
	// replica: replicate everything, kill shard 0's leader — which
	// promotes the caught-up replica to leader — and re-run. This is
	// the "reads across kill → promote are bitwise-identical to
	// single-node" acceptance gate.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.FlushReplication(ctx); err != nil {
		t.Fatal(err)
	}
	c.KillShardLeader(0)
	if got := c.ShardEpoch(0); got != 1 {
		t.Fatalf("shard 0 epoch after first kill = %d, want 1 (promotion)", got)
	}
	compare("promoted")
	compareApps("promoted")

	// Promotion must restore write availability, not just reads:
	// ingest a fresh batch into both deployments — no restart in
	// between — and re-verify equality with the promoted leader
	// taking the writes.
	post := testPopulation(t, seed+1000, 1, 1)
	for _, m := range post.Members {
		srec, err := single.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name + "-post", Version: "1"})
		if err != nil {
			t.Fatalf("single post-promotion ingest: %v", err)
		}
		crec, err := c.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name + "-post", Version: "1"})
		if err != nil {
			t.Fatalf("cluster post-promotion ingest: %v", err)
		}
		if srec.ID != crec.ID {
			t.Fatalf("post-promotion IDs diverge: single %s cluster %s", srec.ID, crec.ID)
		}
	}
	compare("promoted+writes")
	compareApps("promoted+writes")

	// Return the deposed leader (it rejoins as a replica, tail
	// truncated at the promotion point), catch it up, then kill the
	// promoted leader too: the rejoined node is promoted in turn
	// (epoch 2) and must still serve identical answers.
	if err := c.RestartShardLeader(0); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushReplication(ctx); err != nil {
		t.Fatal(err)
	}
	c.KillShardLeader(0)
	if got := c.ShardEpoch(0); got != 2 {
		t.Fatalf("shard 0 epoch after second kill = %d, want 2 (re-promotion)", got)
	}
	compare("re-promoted")
}
