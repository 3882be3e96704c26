package cluster

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"modellake/internal/fault"
	"modellake/internal/kvstore"
	"modellake/internal/lake"
	"modellake/internal/obs"
	"modellake/internal/registry"
)

func epochGauge(shard int) int64 {
	return obs.Default().Gauge("cluster_shard_epoch", obs.L("shard", strconv.Itoa(shard))).Value()
}

func promotionsTotal() uint64 {
	return obs.Default().Counter("cluster_promotions_total").Value()
}

// TestAutomaticPromotionOnKill is the tentpole acceptance test: killing a
// shard leader with a caught-up replica must promote that replica — writes
// succeed again with NO RestartShardLeader — under a bumped epoch that both
// Status and the metrics surface.
func TestAutomaticPromotionOnKill(t *testing.T) {
	c, err := Open(Config{Dir: t.TempDir(), Shards: 2, Replicas: 1, Lake: lake.Config{Sync: true, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pop := testPopulation(t, 91, 2, 1)
	ids := fillCluster(t, c, pop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.FlushReplication(ctx); err != nil {
		t.Fatal(err)
	}

	target := c.OwnerOf(ids[0])
	promosBefore := promotionsTotal()
	c.KillShardLeader(target)

	if g := leaderUpGauge(target); g != 1 {
		t.Fatalf("cluster_shard_leader_up{shard=%d} = %d after promotion, want 1", target, g)
	}
	if g := epochGauge(target); g != 1 {
		t.Fatalf("cluster_shard_epoch{shard=%d} = %d after promotion, want 1", target, g)
	}
	if got := promotionsTotal(); got != promosBefore+1 {
		t.Fatalf("cluster_promotions_total = %d, want %d", got, promosBefore+1)
	}
	if got := c.ShardEpoch(target); got != 1 {
		t.Fatalf("ShardEpoch(%d) = %d, want 1", target, got)
	}
	for _, st := range c.Status() {
		if st.Shard != target {
			continue
		}
		if !st.LeaderUp || st.Leader != "replica0" || st.Epoch != 1 {
			t.Fatalf("shard %d status after kill = %+v, want promoted leader replica0 at epoch 1", target, st)
		}
		for _, r := range st.Replicas {
			if r.Name != "" || r.Up {
				t.Fatalf("promoted replica's slot should be vacant, got %+v", r)
			}
		}
	}

	// Every acked write survives the promotion and reads through the new
	// leader.
	for _, id := range ids {
		if _, err := c.Record(id); err != nil {
			t.Fatalf("read of %s after promotion: %v", id, err)
		}
	}

	// The promoted leader takes writes aimed at its shard — no restart.
	ring := NewRing(2, 0)
	m := testPopulation(t, 92, 1, 0).Members[0]
	rec, err := c.Ingest(m.Model, m.Card,
		registry.RegisterOptions{ID: ownedID(ring, target), Name: m.Truth.Name + "-promoted", Version: "1"})
	if err != nil {
		t.Fatalf("write to promoted leader: %v", err)
	}
	if got, err := c.Record(rec.ID); err != nil || got.ID != rec.ID {
		t.Fatalf("read-back of post-promotion write: %v", err)
	}
}

// TestPromotionChaosSweep kills every shard leader at every point of the
// ingest stream and asserts the full promotion story each time: writes stay
// available with zero acked-write loss, every search is bitwise-identical
// to a single-node lake fed the same stream, the deposed leaders rejoin as
// replicas after a restart, and a second round of kills promotes the
// rejoined nodes (epoch 2) with the same guarantees.
func TestPromotionChaosSweep(t *testing.T) {
	pop := chaosPopulation(t, 1)
	n := len(pop.Members)
	stride := 1
	if testing.Short() {
		stride = 2
	}
	for k := 1; k <= n; k += stride {
		k := k
		t.Run(fmt.Sprintf("kill-after-%d", k), func(t *testing.T) {
			single, err := lake.Open(lake.Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer single.Close()
			c, err := Open(Config{Dir: t.TempDir(), Shards: 2, Replicas: 1, Lake: lake.Config{Sync: true, Seed: 1}})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for _, ds := range pop.Datasets {
				if err := single.RegisterDataset(ds); err != nil {
					t.Fatal(err)
				}
				if err := c.RegisterDataset(ds); err != nil {
					t.Fatal(err)
				}
			}
			ingestBoth := func(from, to int) {
				t.Helper()
				for i := from; i < to; i++ {
					m := pop.Members[i]
					srec, err := single.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name, Version: "1"})
					if err != nil {
						t.Fatalf("single ingest %d: %v", i, err)
					}
					crec, err := c.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name, Version: "1"})
					if err != nil {
						t.Fatalf("cluster ingest %d (leaders killed after %d): %v", i, k, err)
					}
					if srec.ID != crec.ID {
						t.Fatalf("ingest %d minted %s on single, %s on cluster", i, srec.ID, crec.ID)
					}
				}
			}
			compare := func(phase string) {
				t.Helper()
				if single.Count() != c.Count() {
					t.Fatalf("%s: single has %d models, cluster %d", phase, single.Count(), c.Count())
				}
				for _, q := range []string{"legal statute court", "fine tuned"} {
					ch, err := c.SearchKeywordContext(context.Background(), q, 5)
					if err != nil {
						t.Fatalf("%s keyword %q: %v", phase, q, err)
					}
					sameHits(t, phase+" keyword "+q, single.SearchKeyword(q, 5), ch)
				}
				recs, err := single.Records()
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range recs {
					sh, err := single.SearchByModel(rec.ID, "behavior", 3)
					if err != nil {
						t.Fatalf("%s single vector %s: %v", phase, rec.ID, err)
					}
					ch, err := c.SearchByModel(rec.ID, "behavior", 3)
					if err != nil {
						t.Fatalf("%s cluster vector %s: %v", phase, rec.ID, err)
					}
					sameHits(t, fmt.Sprintf("%s vector %s", phase, rec.ID), sh, ch)
				}
			}

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			// Round one: ingest k models, replicate, kill EVERY leader.
			// Each shard must promote and the stream must continue.
			ingestBoth(0, k)
			if err := c.FlushReplication(ctx); err != nil {
				t.Fatal(err)
			}
			for s := 0; s < c.NumShards(); s++ {
				c.KillShardLeader(s)
				if got := c.ShardEpoch(s); got != 1 {
					t.Fatalf("shard %d epoch after kill = %d, want 1 (promotion failed)", s, got)
				}
			}
			ingestBoth(k, n)
			compare("promoted")

			// Round two: deposed leaders rejoin as replicas, catch up, and
			// get promoted themselves when the round-one promotees die.
			for s := 0; s < c.NumShards(); s++ {
				if err := c.RestartShardLeader(s); err != nil {
					t.Fatalf("restart shard %d: %v", s, err)
				}
			}
			if err := c.FlushReplication(ctx); err != nil {
				t.Fatalf("rejoined replicas did not catch up: %v", err)
			}
			for _, st := range c.Status() {
				if len(st.Replicas) == 0 || st.Replicas[0].Name != "leader" || !st.Replicas[0].Up {
					t.Fatalf("shard %d: deposed leader did not rejoin as replica: %+v", st.Shard, st.Replicas)
				}
			}
			for s := 0; s < c.NumShards(); s++ {
				c.KillShardLeader(s)
				if got := c.ShardEpoch(s); got != 2 {
					t.Fatalf("shard %d epoch after second kill = %d, want 2", s, got)
				}
			}
			for _, st := range c.Status() {
				if st.Leader != "leader" || !st.LeaderUp {
					t.Fatalf("shard %d: rejoined node not re-promoted: %+v", st.Shard, st)
				}
			}
			compare("re-promoted")
		})
	}
}

// TestOldLeaderTailTruncatedOnRejoin proves the epoch mechanism detects and
// removes a deposed leader's unreplicated tail. After a promotion, extra
// valid records plus garbage are appended to the dead leader's log — the
// moral equivalent of writes that were committed but never shipped. On
// RestartShardLeader the node must truncate back to the promotion point and
// rejoin as a replica of the new history instead of forking.
func TestOldLeaderTailTruncatedOnRejoin(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{Dir: dir, Shards: 1, Replicas: 1, Lake: lake.Config{Sync: true, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pop := chaosPopulation(t, 1)
	var acked []string
	for _, m := range pop.Members {
		rec, err := c.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name, Version: "1"})
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, rec.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.FlushReplication(ctx); err != nil {
		t.Fatal(err)
	}

	c.KillShardLeader(0)
	if got := c.ShardEpoch(0); got != 1 {
		t.Fatalf("epoch after kill = %d, want 1", got)
	}

	// Forge an unreplicated tail: harvest CRC-valid records from a scratch
	// store and append them — plus torn garbage — to the dead leader's log.
	oldLog := filepath.Join(dir, "shard0", "leader", "lake.log")
	scratchPath := filepath.Join(t.TempDir(), "scratch.log")
	scratch, err := kvstore.Open(scratchPath, kvstore.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := scratch.Put("model/m-777777", []byte("resurrected")); err != nil {
		t.Fatal(err)
	}
	scratch.Close()
	tail, err := kvstore.ReadLogFile(nil, scratchPath, 0, 1<<20)
	if err != nil || len(tail) == 0 {
		t.Fatalf("harvest scratch records: %v (%d bytes)", err, len(tail))
	}
	f, err := os.OpenFile(oldLog, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(tail, 0xde, 0xad, 0xbe)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if forged, err := os.ReadFile(oldLog); err != nil || !bytes.Contains(forged, []byte("m-777777")) {
		t.Fatalf("forged tail not readable back from the dead leader's log: %v", err)
	}
	// Diverge the new history past the promotion point.
	m := testPopulation(t, 93, 1, 0).Members[0]
	rec, err := c.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name + "-diverge", Version: "1"})
	if err != nil {
		t.Fatalf("write to promoted leader: %v", err)
	}
	acked = append(acked, rec.ID)

	// The deposed leader returns: its tail must be gone, and replication
	// must converge on the promoted history.
	if err := c.RestartShardLeader(0); err != nil {
		t.Fatal(err)
	}
	// (Checked by content, not size: the shipper may already have appended
	// the promoted history to the truncated log by the time we look.)
	rejoined, err := os.ReadFile(oldLog)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(rejoined, []byte("m-777777")) {
		t.Fatal("deposed leader's log still holds the forged tail record; tail not truncated")
	}
	if err := c.FlushReplication(ctx); err != nil {
		t.Fatalf("rejoined replica did not converge: %v", err)
	}

	// Kill the promoted leader: the rejoined ex-leader is promoted in turn
	// and must serve exactly the acked history — nothing lost, nothing
	// resurrected.
	c.KillShardLeader(0)
	if got := c.ShardEpoch(0); got != 2 {
		t.Fatalf("epoch after second kill = %d, want 2", got)
	}
	for _, st := range c.Status() {
		if st.Leader != "leader" || !st.LeaderUp {
			t.Fatalf("rejoined node not promoted: %+v", st)
		}
	}
	for _, id := range acked {
		if _, err := c.Record(id); err != nil {
			t.Fatalf("acked write %s lost across depose/rejoin/re-promote: %v", id, err)
		}
	}
	if got := c.Count(); got != len(acked) {
		t.Fatalf("Count = %d, want %d (forged tail records must not resurrect)", got, len(acked))
	}
	if _, err := c.Record("m-777777"); err == nil {
		t.Fatal("forged tail record m-777777 resurrected after rejoin")
	}
}

// TestFlushReplicationReportsAllReplicasDown covers the satellite fix: a
// shard whose every replica is down must not report "fully replicated" —
// there is nobody left to catch up.
func TestFlushReplicationReportsAllReplicasDown(t *testing.T) {
	c, err := Open(Config{Dir: t.TempDir(), Shards: 1, Replicas: 1, Lake: lake.Config{Sync: true, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := testPopulation(t, 94, 1, 0).Members[0]
	if _, err := c.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name, Version: "1"}); err != nil {
		t.Fatal(err)
	}
	s := c.shards[0]
	s.mu.RLock()
	rep := s.replicas[0]
	s.mu.RUnlock()
	rep.setUp(false)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = c.FlushReplication(ctx)
	if err == nil {
		t.Fatal("FlushReplication with every replica down returned nil, want an error naming the down replicas")
	}
	if !strings.Contains(err.Error(), "every replica is down") || !strings.Contains(err.Error(), "replica0") {
		t.Fatalf("FlushReplication error %q does not name the down replica", err)
	}
}

// TestShipperExitZeroesLagGauge covers the satellite fix: a shipper that
// exits (here: leader killed) must zero its replica's lag gauge instead of
// advertising the last observed lag forever, and must count its exit reason.
func TestShipperExitZeroesLagGauge(t *testing.T) {
	c, err := Open(Config{Dir: t.TempDir(), Shards: 1, Replicas: 1, Lake: lake.Config{Sync: true, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := testPopulation(t, 95, 1, 0).Members[0]
	if _, err := c.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name, Version: "1"}); err != nil {
		t.Fatal(err)
	}
	lagG := obs.Default().Gauge("cluster_replica_lag_bytes", obs.L("shard", "0"), obs.L("replica", "0"))
	lagG.Set(12345) // pretend the shipper died mid-catch-up with stale lag published
	stopped := obs.Default().Counter("cluster_shipper_exits_total", obs.L("reason", "stopped")).Value()
	c.KillShardLeader(0) // stops shipping (then promotes, which also vacates the slot)
	if got := lagG.Value(); got != 0 {
		t.Fatalf("cluster_replica_lag_bytes = %d after shipper exit, want 0", got)
	}
	if got := obs.Default().Counter("cluster_shipper_exits_total", obs.L("reason", "stopped")).Value(); got <= stopped {
		t.Fatalf("cluster_shipper_exits_total{reason=stopped} did not grow (%d -> %d)", stopped, got)
	}
}

// TestFailoverReadCounterCountsServedReads covers the satellite fix:
// cluster_failover_reads_total counts reads a replica actually served, not
// retry attempts. With the leader's whole disk dead (promotion impossible),
// N distinct reads must move the counter by exactly N even though the retry
// loop runs more attempts than that.
func TestFailoverReadCounterCountsServedReads(t *testing.T) {
	arm := &armedInjector{inner: &fault.Script{FailAt: 1, Sticky: true}}
	c, err := Open(Config{
		Dir: t.TempDir(), Shards: 1, Replicas: 1,
		Lake:     lake.Config{Sync: true, Seed: 1},
		LeaderFS: []*fault.FS{fault.New(arm)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pop := testPopulation(t, 96, 2, 0)
	ids := fillCluster(t, c, pop)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.FlushReplication(ctx); err != nil {
		t.Fatal(err)
	}

	// Down the leader via an injected write failure; the dead disk blocks
	// promotion, so reads are served by the replica from here on.
	arm.on.Store(true)
	m := testPopulation(t, 97, 1, 0).Members[0]
	if _, err := c.Ingest(m.Model, m.Card, registry.RegisterOptions{ID: "m-900001", Name: "trip", Version: "1"}); err == nil {
		t.Fatal("write on failing leader succeeded, want ErrLeaderDown")
	}

	before := obs.Default().Counter("cluster_failover_reads_total").Value()
	const reads = 5
	for i := 0; i < reads; i++ {
		if _, err := c.Record(ids[i%len(ids)]); err != nil {
			t.Fatalf("failover read %d: %v", i, err)
		}
	}
	after := obs.Default().Counter("cluster_failover_reads_total").Value()
	if after-before != reads {
		t.Fatalf("cluster_failover_reads_total moved by %d for %d served reads, want exactly %d",
			after-before, reads, reads)
	}
}
