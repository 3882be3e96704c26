package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"testing"
	"time"

	"modellake/internal/benchmark"
	"modellake/internal/fault"
	"modellake/internal/lake"
	"modellake/internal/lakegen"
	"modellake/internal/obs"
	"modellake/internal/raceflag"
	"modellake/internal/registry"
	"modellake/internal/version"
)

// testPopulation generates a small synthetic lake population.
func testPopulation(t *testing.T, seed uint64, bases, children int) *lakegen.Population {
	t.Helper()
	s := lakegen.DefaultSpec(seed)
	s.NumBases = bases
	s.ChildrenPerBase = children
	pop, err := lakegen.Generate(s)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// fillCluster serially ingests a population into the cluster (serial so
// minted IDs match a single-node lake ingesting the same stream), returning
// member-index → ID. Datasets and benchmarks are registered like the
// single-node fill helper.
func fillCluster(t *testing.T, c *Cluster, pop *lakegen.Population) []string {
	t.Helper()
	for _, ds := range pop.Datasets {
		if err := c.RegisterDataset(ds); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]string, len(pop.Members))
	for i, m := range pop.Members {
		rec, err := c.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name, Version: "1"})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = rec.ID
	}
	for _, m := range pop.Members {
		if m.Truth.Depth == 0 {
			c.RegisterBenchmark(&benchmark.Benchmark{
				ID:     "bench-" + m.Truth.Domain,
				DS:     pop.Datasets[m.Truth.DatasetID],
				Metric: benchmark.MetricAccuracy,
			})
		}
	}
	return ids
}

// fillLake is fillCluster for a single-node lake.
func fillLake(t *testing.T, l *lake.Lake, pop *lakegen.Population) []string {
	t.Helper()
	for _, ds := range pop.Datasets {
		if err := l.RegisterDataset(ds); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]string, len(pop.Members))
	for i, m := range pop.Members {
		rec, err := l.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name, Version: "1"})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = rec.ID
	}
	for _, m := range pop.Members {
		if m.Truth.Depth == 0 {
			l.RegisterBenchmark(&benchmark.Benchmark{
				ID:     "bench-" + m.Truth.Domain,
				DS:     pop.Datasets[m.Truth.DatasetID],
				Metric: benchmark.MetricAccuracy,
			})
		}
	}
	return ids
}

func leaderUpGauge(shard int) int64 {
	return obs.Default().Gauge("cluster_shard_leader_up", obs.L("shard", strconv.Itoa(shard))).Value()
}

func TestRingPlacementIsDeterministicAndCovering(t *testing.T) {
	r1 := NewRing(3, 0)
	r2 := NewRing(3, 0)
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		key := "m-" + strconv.Itoa(i)
		o := r1.Owner(key)
		if o != r2.Owner(key) {
			t.Fatalf("placement of %s differs between identical rings", key)
		}
		if o < 0 || o >= 3 {
			t.Fatalf("owner %d out of range", o)
		}
		counts[o]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d received no keys", s)
		}
		// 3000 keys over 3 shards: expect ~1000 each; consistent hashing
		// with 64 vnodes should stay well within 2x of fair share.
		if n < 300 || n > 2000 {
			t.Fatalf("shard %d holds %d of 3000 keys; ring badly imbalanced: %v", s, n, counts)
		}
	}
}

func TestClusterRoutesWritesAndReads(t *testing.T) {
	c, err := Open(Config{Dir: t.TempDir(), Shards: 2, Lake: lake.Config{Sync: true, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pop := testPopulation(t, 21, 2, 2)
	ids := fillCluster(t, c, pop)

	if c.Count() != len(pop.Members) {
		t.Fatalf("Count = %d, want %d", c.Count(), len(pop.Members))
	}
	recs, err := c.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(ids) {
		t.Fatalf("Records = %d entries, want %d", len(recs), len(ids))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1].ID >= recs[i].ID {
			t.Fatalf("Records not sorted by ID: %s before %s", recs[i-1].ID, recs[i].ID)
		}
	}
	seen := make(map[int]bool)
	for i, id := range ids {
		seen[c.OwnerOf(id)] = true
		rec, err := c.Record(id)
		if err != nil {
			t.Fatalf("Record(%s): %v", id, err)
		}
		if rec.Name != pop.Members[i].Truth.Name {
			t.Fatalf("record %s has name %q, want %q", id, rec.Name, pop.Members[i].Truth.Name)
		}
		rid, err := c.Resolve(pop.Members[i].Truth.Name, "1")
		if err != nil || rid != id {
			t.Fatalf("Resolve(%s) = %s, %v; want %s", pop.Members[i].Truth.Name, rid, err, id)
		}
	}
	if len(seen) < 2 {
		t.Fatalf("all %d models landed on one shard; placement not spreading", len(ids))
	}

	hits, err := c.SearchByModel(ids[0], "behavior", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("scatter-gather vector search found nothing")
	}
	for _, h := range hits {
		if h.ID == ids[0] {
			t.Fatal("query model not excluded from its own results")
		}
	}
	if kw := c.SearchKeyword("legal statute court", 4); len(kw) == 0 {
		t.Fatal("cluster keyword search found nothing")
	}
}

// TestClusterFailoverReadsAndFailFastWrites exercises a TRUE outage: the
// leader's whole disk fails (sticky injected faults), so after the leader
// goes down the promotion drain cannot read its log and no replica can be
// certified caught-up. The shard must stay read-available through the
// replica and fail writes fast — the pre-promotion degraded mode.
func TestClusterFailoverReadsAndFailFastWrites(t *testing.T) {
	arms := []*armedInjector{
		{inner: &fault.Script{FailAt: 1, Sticky: true}},
		{inner: &fault.Script{FailAt: 1, Sticky: true}},
	}
	c, err := Open(Config{
		Dir: t.TempDir(), Shards: 2, Replicas: 1,
		Lake:     lake.Config{Sync: true, Seed: 1},
		LeaderFS: []*fault.FS{fault.New(arms[0]), fault.New(arms[1])},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pop := testPopulation(t, 33, 2, 2)
	ids := fillCluster(t, c, pop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.FlushReplication(ctx); err != nil {
		t.Fatal(err)
	}

	target := c.OwnerOf(ids[0])
	before, err := c.Record(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	// Arm the target leader's disk faults and trip them with a write: the
	// injected IO failure downs the leader, and with its log unreadable the
	// failover cannot certify a promotion candidate.
	arms[target].on.Store(true)
	ring := NewRing(2, 0)
	trip := testPopulation(t, 35, 1, 0).Members[0]
	if _, err := c.Ingest(trip.Model, trip.Card,
		registry.RegisterOptions{ID: ownedID(ring, target), Name: "trip", Version: "1"}); !errors.Is(err, ErrLeaderDown) {
		t.Fatalf("write on failing leader returned %v, want ErrLeaderDown", err)
	}
	if g := leaderUpGauge(target); g != 0 {
		t.Fatalf("cluster_shard_leader_up{shard=%d} = %d after leader disk failure, want 0", target, g)
	}

	// Reads on the dead shard fail over to its replica.
	after, err := c.Record(ids[0])
	if err != nil {
		t.Fatalf("failover read: %v", err)
	}
	if after.ID != before.ID || after.Name != before.Name || after.Seq != before.Seq {
		t.Fatalf("failover read differs: %+v vs %+v", after, before)
	}
	if err := c.Ready(); err != nil {
		t.Fatalf("cluster with a live replica must stay ready for reads: %v", err)
	}
	if _, err := c.SearchKeywordContext(ctx, "legal statute court", 4); err != nil {
		t.Fatalf("cluster keyword search during outage: %v", err)
	}

	// Writes to the dead shard fail fast with ErrLeaderDown; the other
	// shard keeps accepting writes.
	m := testPopulation(t, 34, 1, 0).Members[0]
	rejected := obs.Default().Counter("cluster_writes_rejected_total").Value()
	sawDown, sawAck := false, false
	for i := 0; i < 8 && !(sawDown && sawAck); i++ {
		_, err := c.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name + "-w" + strconv.Itoa(i), Version: "1"})
		switch {
		case err == nil:
			sawAck = true
		case errors.Is(err, ErrLeaderDown):
			sawDown = true
		default:
			t.Fatalf("write during outage failed with %v, want ErrLeaderDown or success", err)
		}
	}
	if !sawDown {
		t.Fatal("no write was rejected with ErrLeaderDown while a leader was down")
	}
	if !sawAck {
		t.Fatal("the healthy shard stopped accepting writes during a sibling outage")
	}
	if got := obs.Default().Counter("cluster_writes_rejected_total").Value(); got <= rejected {
		t.Fatalf("cluster_writes_rejected_total did not grow (%d -> %d)", rejected, got)
	}

	// Restart heals the shard: disk healthy again, gauge back up, writes
	// accepted again. No promotion happened, so the node reopens as leader.
	arms[target].on.Store(false)
	if err := c.RestartShardLeader(target); err != nil {
		t.Fatal(err)
	}
	if g := leaderUpGauge(target); g != 1 {
		t.Fatalf("cluster_shard_leader_up{shard=%d} = %d after restart, want 1", target, g)
	}
	for i := 0; i < 8; i++ {
		if _, err := c.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name + "-r" + strconv.Itoa(i), Version: "1"}); err != nil {
			t.Fatalf("write after restart: %v", err)
		}
	}
	if err := c.FlushReplication(ctx); err != nil {
		t.Fatalf("replication did not resume after restart: %v", err)
	}
	for _, st := range c.Status() {
		if !st.LeaderUp {
			t.Fatalf("shard %d leader still down in Status after restart", st.Shard)
		}
		for ri, r := range st.Replicas {
			if !r.Up || r.LagBytes != 0 {
				t.Fatalf("shard %d replica %d not caught up: %+v", st.Shard, ri, r)
			}
		}
	}
}

func TestClusterReopensAndContinuesIDSequence(t *testing.T) {
	dir := t.TempDir()
	pop := testPopulation(t, 55, 2, 1)
	cfg := Config{Dir: dir, Shards: 2, Lake: lake.Config{Sync: true, Seed: 1}}
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := fillCluster(t, c, pop)
	c.Close()

	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Count() != len(ids) {
		t.Fatalf("reopened cluster Count = %d, want %d", c2.Count(), len(ids))
	}
	m := testPopulation(t, 56, 1, 0).Members[0]
	rec, err := c2.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name + "-new", Version: "1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range ids {
		if rec.ID == old {
			t.Fatalf("reopened cluster re-minted existing ID %s", rec.ID)
		}
	}
}

// TestClusterReopenDrainBuildsSegments is the 2 shards × 1 replica arm of
// the lake's reopen-drain contract: after the first keyword search of a
// reopened cluster every node — leaders and followers alike — holds its
// rehydrated cards in compact segments with an empty map tier, and the
// scatter-gathered answers are bitwise those of a single lake that was never
// closed.
func TestClusterReopenDrainBuildsSegments(t *testing.T) {
	ctx := context.Background()
	pop := testPopulation(t, 57, 6, 7)
	single, err := lake.Open(lake.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	fillLake(t, single, pop)

	cfg := Config{Dir: t.TempDir(), Shards: 2, Replicas: 1, Lake: lake.Config{Sync: true, Seed: 7}}
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillCluster(t, c, pop)
	if err := c.FlushReplication(ctx); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if c, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, q := range []string{"legal statute court", "medical clinical", "synthetic benchmark model", "nonexistenttoken42"} {
		got, err := c.SearchKeywordContext(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		want, err := single.SearchKeywordContext(ctx, q, 10)
		if err != nil {
			t.Fatal(err)
		}
		sameHits(t, "reopened cluster "+q, want, got)
	}
	docs := 0
	for _, sh := range c.shards {
		nodes := []*lake.Lake{sh.leader}
		for _, r := range sh.replicas {
			nodes = append(nodes, r.lk)
		}
		for n, lk := range nodes {
			st := lk.TierMemStats()
			if st.KeywordMapDocs != 0 || st.KeywordSegmentDocs == 0 {
				t.Fatalf("shard %d node %d after the drain: %+v; want every card in a segment", sh.idx, n, st)
			}
			if n == 0 {
				docs += st.KeywordSegmentDocs
			} else if st.KeywordSegmentDocs != nodes[0].TierMemStats().KeywordSegmentDocs {
				t.Fatalf("shard %d: follower holds %d docs, leader %d", sh.idx, st.KeywordSegmentDocs, nodes[0].TierMemStats().KeywordSegmentDocs)
			}
		}
	}
	if docs != single.TierMemStats().KeywordMapDocs {
		t.Fatalf("cluster segments hold %d docs, the single lake's map tier %d", docs, single.TierMemStats().KeywordMapDocs)
	}
}

// TestClusterVersionGraphCache: a cluster caches its Model Graph under its
// generation. The graph after an ingest holds the new model, a graph built
// across an ingest is never served once the ingest has returned, and a
// promotion retires the cached graph.
func TestClusterVersionGraphCache(t *testing.T) {
	pop := testPopulation(t, 31, 3, 4)
	c, err := Open(Config{Dir: t.TempDir(), Shards: 2, Lake: lake.Config{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fillCluster(t, c, pop)
	ctx := context.Background()
	graph := func() *version.Graph {
		t.Helper()
		g, err := c.VersionGraphContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	n := 0
	ingest := func() string {
		t.Helper()
		m := *pop.Members[0].Model
		m.ID = ""
		n++
		rec, err := c.Ingest(&m, nil, registry.RegisterOptions{Name: fmt.Sprintf("twin-%d", n)})
		if err != nil {
			t.Fatal(err)
		}
		return rec.ID
	}

	g := graph()
	if graph() != g {
		t.Fatal("an unchanged cluster rebuilt its graph")
	}
	id := ingest()
	after := graph()
	if after == g || !slices.Contains(after.Nodes, id) {
		t.Fatalf("the graph after the ingest of %s is the old one (%v) or leaves it out", id, after == g)
	}
	if graph() != after {
		t.Fatal("the graph after the ingest was not cached")
	}

	trials := 40
	if raceflag.Enabled || testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		ingest() // retires the cached graph, so the next call builds
		built := make(chan error)
		go func() {
			_, err := c.VersionGraphContext(ctx)
			built <- err
		}()
		time.Sleep(time.Duration(trial%10) * 100 * time.Microsecond)
		id := ingest()
		if err := <-built; err != nil {
			t.Fatal(err)
		}
		if g := graph(); !slices.Contains(g.Nodes, id) {
			t.Fatalf("trial %d: the graph after the ingest of %s leaves it out", trial, id)
		}
	}

	before := graph()
	fctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := c.FlushReplication(fctx); err != nil {
		t.Fatal(err)
	}
	c.KillShardLeader(0)
	if got := c.ShardEpoch(0); got != 1 {
		t.Fatalf("shard 0 epoch after the kill = %d, want 1 (promotion)", got)
	}
	promoted := graph()
	if promoted == before {
		t.Fatal("the graph cached before the promotion is still served")
	}
	sameJSON(t, "graph across the promotion", before, promoted)
}
