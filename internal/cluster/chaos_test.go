package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"modellake/internal/fault"
	"modellake/internal/lake"
	"modellake/internal/lakegen"
	"modellake/internal/registry"
)

// armedInjector gates an inner injector behind a switch, so a sweep can run
// a clean prelude (ingest + replicate), then arm the faults for the phase
// under test. Unarmed operations are invisible — not counted, not failed —
// which keeps the recorder pass and the scripted passes aligned.
type armedInjector struct {
	inner fault.Injector
	on    atomic.Bool
}

func (a *armedInjector) Apply(op fault.Op, path string) error {
	if !a.on.Load() {
		return nil
	}
	return a.inner.Apply(op, path)
}

// chaosPopulation is a small population that still exercises blob writes,
// multi-key registry commits, provenance journaling, and WAL shipping: two
// base models, each with childrenPerBase fine-tuned children.
func chaosPopulation(t *testing.T, childrenPerBase int) *lakegen.Population {
	t.Helper()
	spec := lakegen.DefaultSpec(42)
	spec.NumBases = 2
	spec.ChildrenPerBase = childrenPerBase
	spec.MaxDepth = 1
	spec.TrainN = 40
	spec.BaseEpochs = 2
	spec.FTEpochs = 1
	pop, err := lakegen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// chaosRun is one pass of the shard-kill workload against a fresh cluster:
//
//	prelude: ingest the first preludeN members cleanly and wait for the
//	         replicas to fully catch up, so failover has something to serve;
//	arm:     switch on the injected faults for the target shard's leader;
//	chaos:   ingest the remaining members, recording which writes acked.
type chaosRun struct {
	c         *Cluster
	target    int
	prelude   []string // acked + replicated before the faults arm
	acked     []string // every acked write, prelude included
	sawFail   bool
	failedErr error // first non-nil ingest error
}

const preludeN = 2

func runChaosWorkload(t *testing.T, dir string, pop *lakegen.Population, target int, arm *armedInjector) *chaosRun {
	t.Helper()
	leaderFS := make([]*fault.FS, 2)
	leaderFS[target] = fault.New(arm)
	c, err := Open(Config{
		Dir:      dir,
		Shards:   2,
		Replicas: 1,
		Lake:     lake.Config{Sync: true, Seed: 1},
		LeaderFS: leaderFS,
	})
	if err != nil {
		t.Fatalf("open cluster: %v", err)
	}
	run := &chaosRun{c: c, target: target}
	for _, ds := range pop.Datasets {
		if err := c.RegisterDataset(ds); err != nil {
			t.Fatalf("register dataset: %v", err)
		}
	}
	for i := 0; i < preludeN; i++ {
		m := pop.Members[i]
		rec, err := c.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name, Version: "1"})
		if err != nil {
			t.Fatalf("prelude ingest: %v", err)
		}
		run.prelude = append(run.prelude, rec.ID)
		run.acked = append(run.acked, rec.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.FlushReplication(ctx); err != nil {
		t.Fatalf("prelude flush: %v", err)
	}

	arm.on.Store(true)
	for i := preludeN; i < len(pop.Members); i++ {
		m := pop.Members[i]
		rec, err := c.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name, Version: "1"})
		if err == nil {
			run.acked = append(run.acked, rec.ID)
			continue
		}
		run.sawFail = true
		if run.failedErr == nil {
			run.failedErr = err
		}
	}
	arm.on.Store(false)
	return run
}

// TestShardKillChaosSweep is the acceptance gate for the cluster's
// robustness story. It enumerates every leader IO operation the chaos phase
// performs, then replays the workload once per operation with that
// operation (and, sticky, every later one — a disk that dies and stays
// dead) failing, and asserts after each kill:
//
//  1. no acked write is ever lost: every acknowledged ingest is readable
//     after the leader restarts from its on-disk state;
//  2. reads keep completing during the outage by failing over to the
//     replica, and they serve exactly the replicated state;
//  3. writes to the dead shard fail fast with ErrLeaderDown while the
//     sibling shard keeps acking, and the health gauges track the outage
//     and the recovery.
func TestShardKillChaosSweep(t *testing.T) {
	// Ten models: IDs are minted in sequence, and of the eight chaos-phase
	// ones the ring hands four to the kill target.
	pop := chaosPopulation(t, 4)

	// The first chaos-phase write lands on the shard owning the first
	// post-prelude minted ID — that shard is the kill target.
	ring := NewRing(2, 0)
	target := ring.Owner(fmt.Sprintf("m-%06d", preludeN+1))
	onTarget := 0
	for i := preludeN; i < len(pop.Members); i++ {
		if ring.Owner(fmt.Sprintf("m-%06d", i+1)) == target {
			onTarget++
		}
	}

	// Recorder pass: count the target leader's IO operations during the
	// chaos phase.
	rec := &fault.Recorder{}
	probe := runChaosWorkload(t, t.TempDir(), pop, target, &armedInjector{inner: rec})
	probe.c.Close()
	if probe.sawFail {
		t.Fatalf("recorder pass must not fail: %v", probe.failedErr)
	}
	n := len(rec.Ops())
	// Every durable ingest is a WAL append and its fsync; all but a model
	// whose weights are already stored add a seven-op blob publish.
	if n < 2*onTarget+7 || onTarget < 4 {
		t.Fatalf("chaos phase exercised only %d leader IO ops over %d target-shard ingests; sweep too small", n, onTarget)
	}

	stride := 1
	if testing.Short() {
		stride = (n + 7) / 8 // 8 kill points in short mode
	}
	for i := 1; i <= n; i += stride {
		i := i
		t.Run(fmt.Sprintf("op-%02d", i), func(t *testing.T) {
			script := &fault.Script{FailAt: i, Sticky: true}
			run := runChaosWorkload(t, t.TempDir(), pop, target, &armedInjector{inner: script})
			c := run.c
			defer c.Close()

			if run.sawFail {
				if !errors.Is(run.failedErr, ErrLeaderDown) {
					t.Fatalf("chaos-phase write failed with %v, want ErrLeaderDown", run.failedErr)
				}
				if g := leaderUpGauge(target); g != 0 {
					t.Fatalf("cluster_shard_leader_up{shard=%d} = %d during outage, want 0", target, g)
				}
				// In-flight reads complete via failover, serving the
				// replicated state exactly.
				if err := c.Ready(); err != nil {
					t.Fatalf("cluster lost read availability during a single-leader outage: %v", err)
				}
				for _, id := range run.prelude {
					r, err := c.Record(id)
					if err != nil {
						t.Fatalf("failover read of replicated model %s: %v", id, err)
					}
					if r.ID != id {
						t.Fatalf("failover read returned %s for %s", r.ID, id)
					}
				}
				if _, err := c.SearchKeywordContext(context.Background(), "legal statute court", 3); err != nil {
					t.Fatalf("keyword search during outage: %v", err)
				}
				// The sibling shard must still ack writes.
				extra := pop.Members[0]
				recNew, err := c.Ingest(extra.Model, extra.Card,
					registry.RegisterOptions{ID: siblingID(ring, target), Name: extra.Truth.Name + "-sibling", Version: "1"})
				if err != nil {
					t.Fatalf("sibling-shard write during outage: %v", err)
				}
				run.acked = append(run.acked, recNew.ID)
			}

			// Kill the (possibly already poisoned) leader process outright,
			// then bring it back on a healthy disk. Every acked write must
			// have survived.
			c.KillShardLeader(target)
			if err := c.RestartShardLeader(target); err != nil {
				t.Fatalf("leader restart after kill at op %d: %v", i, err)
			}
			if g := leaderUpGauge(target); g != 1 {
				t.Fatalf("cluster_shard_leader_up{shard=%d} = %d after restart, want 1", target, g)
			}
			for _, id := range run.acked {
				if _, err := c.Record(id); err != nil {
					t.Fatalf("acked write %s lost after kill at op %d: %v", id, i, err)
				}
			}
			if got := c.Count(); got < len(run.acked) {
				t.Fatalf("recovered %d models, acked %d", got, len(run.acked))
			}
			// Replication resumes from the replica's own offset and
			// re-converges.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := c.FlushReplication(ctx); err != nil {
				t.Fatalf("replication did not reconverge after restart: %v", err)
			}
			// The healed shard takes writes again.
			extra := pop.Members[0]
			if _, err := c.Ingest(extra.Model, extra.Card,
				registry.RegisterOptions{ID: ownedID(ring, target), Name: extra.Truth.Name + "-healed", Version: "1"}); err != nil {
				t.Fatalf("write to healed shard: %v", err)
			}
		})
	}
}

// siblingID returns an unused explicit ID owned by a shard other than
// target; ownedID returns one owned by target. Explicit IDs let the test
// aim a write at a specific shard.
func siblingID(ring *Ring, target int) string {
	for i := 1000; ; i++ {
		id := fmt.Sprintf("m-9%05d", i)
		if ring.Owner(id) != target {
			return id
		}
	}
}

func ownedID(ring *Ring, target int) string {
	for i := 5000; ; i++ {
		id := fmt.Sprintf("m-8%05d", i)
		if ring.Owner(id) == target {
			return id
		}
	}
}
