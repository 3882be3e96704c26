package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"modellake/internal/apps"
	"modellake/internal/audit"
	"modellake/internal/benchmark"
	"modellake/internal/card"
	"modellake/internal/data"
	"modellake/internal/docgen"
	"modellake/internal/fault"
	"modellake/internal/lake"
	"modellake/internal/mlql"
	"modellake/internal/model"
	"modellake/internal/provenance"
	"modellake/internal/registry"
	"modellake/internal/retry"
	"modellake/internal/search"
	"modellake/internal/tensor"
	"modellake/internal/version"
)

// Config configures a cluster.
type Config struct {
	// Dir is the cluster root; each shard lives in Dir/shardN.
	Dir string
	// Shards is the partition count (default 2). It is fixed for the life
	// of the cluster directory: placement is a pure function of the ID and
	// the shard count.
	Shards int
	// Replicas is the read-replica count per shard (default 1).
	Replicas int
	// Vnodes is the consistent-hash virtual-node count per shard
	// (default DefaultVnodes).
	Vnodes int
	// Lake is the per-node lake template. Dir, BlobDir, FS, and Follower
	// are overridden per node; everything else (Seed, dimensions, Sync,
	// caches) applies to every node. Seed in particular must be uniform:
	// embedders across the cluster have to agree bit-for-bit.
	Lake lake.Config
	// LeaderFS optionally routes shard i's leader IO through LeaderFS[i]
	// for fault injection; nil entries (or a nil/short slice) mean the
	// real filesystem. Replicas always use the real filesystem.
	LeaderFS []*fault.FS
	// Retry is the failover policy for routed reads; the zero value uses
	// the retry package defaults (3 attempts, 2ms base, jittered).
	Retry retry.Policy
}

// Cluster is a sharded, replicated lake behind the single-lake API: writes
// route to the owning shard's leader, reads fail over to replicas, searches
// scatter to every shard and gather through the same merge machinery the
// single-node path uses.
type Cluster struct {
	cfg    Config
	ring   *Ring
	shards []*shard
	pol    retry.Policy

	// nextID mints catalog IDs centrally (placement hashes the ID, so the
	// ID must exist before the owning shard is known). Seeded from the
	// highest persisted ID so reopened clusters keep counting.
	nextID atomic.Uint64

	// benchmarks remembers the registered suite; benchmark registration is
	// in-memory on each node, so a restarted leader needs it replayed.
	// datasets holds the registered datasets' rows, which no node
	// replicates, for the audit's training-claim check.
	bmu        sync.Mutex
	benchmarks map[string]*benchmark.Benchmark
	datasets   map[string]*data.Dataset

	apps   *apps.Apps
	writes atomic.Uint64 // routed Ingest / IngestAll calls that have returned
}

// Open opens (or creates) a cluster under cfg.Dir.
func Open(cfg Config) (*Cluster, error) {
	if cfg.Dir == "" {
		return nil, errors.New("cluster: Dir is required")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 2
	}
	if cfg.Replicas < 0 {
		cfg.Replicas = 0
	} else if cfg.Replicas == 0 {
		cfg.Replicas = 1
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: create directory: %w", err)
	}
	c := &Cluster{
		cfg:        cfg,
		ring:       NewRing(cfg.Shards, cfg.Vnodes),
		pol:        cfg.Retry,
		benchmarks: map[string]*benchmark.Benchmark{},
		datasets:   map[string]*data.Dataset{},
	}
	c.apps = lake.NewApplications(c, cfg.Lake)
	for i := 0; i < cfg.Shards; i++ {
		var fs *fault.FS
		if i < len(cfg.LeaderFS) {
			fs = cfg.LeaderFS[i]
		}
		s, err := openShard(i, filepath.Join(cfg.Dir, fmt.Sprintf("shard%d", i)), cfg.Lake, cfg.Replicas, fs)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.shards = append(c.shards, s)
	}
	if err := c.seedIDCounter(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// seedIDCounter scans every shard for the highest minted "m-%06d" ID so a
// reopened cluster continues the sequence instead of colliding.
func (c *Cluster) seedIDCounter() error {
	recs, err := c.Records()
	if err != nil {
		return fmt.Errorf("cluster: seed ID counter: %w", err)
	}
	var max uint64
	for _, rec := range recs {
		var n uint64
		if _, err := fmt.Sscanf(rec.ID, "m-%06d", &n); err == nil && n > max {
			max = n
		}
	}
	c.nextID.Store(max)
	return nil
}

// MintID allocates the next catalog ID. IDs match the single-node format
// and sequence ("m-000001", ...), so a cluster and a single lake ingesting
// the same stream in the same order assign identical IDs.
func (c *Cluster) MintID() string {
	return fmt.Sprintf("m-%06d", c.nextID.Add(1))
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// OwnerOf returns the shard index owning a catalog ID.
func (c *Cluster) OwnerOf(id string) int { return c.ring.Owner(id) }

func (c *Cluster) owner(id string) *shard { return c.shards[c.ring.Owner(id)] }

// Close releases every node in every shard.
func (c *Cluster) Close() error {
	for _, s := range c.shards {
		if s != nil {
			s.close()
		}
	}
	return nil
}

// Ready reports whether every shard can serve reads (at least one live
// node). A shard with its leader down but a live replica is still ready —
// degraded for writes, available for reads.
func (c *Cluster) Ready() error {
	for _, s := range c.shards {
		if lk, _, _ := s.readNode(); lk == nil {
			return fmt.Errorf("cluster: shard %d has no live node", s.idx)
		}
	}
	return nil
}

// --- Write path -------------------------------------------------------

// Ingest is IngestContext with a background context.
func (c *Cluster) Ingest(m *model.Model, crd *card.Card, opts registry.RegisterOptions) (*registry.Record, error) {
	return c.IngestContext(context.Background(), m, crd, opts)
}

// IngestContext stores one model on its owning shard. An empty opts.ID mints
// the next cluster ID; placement hashes the final ID either way. A context
// that dies before the write is submitted aborts it with ctx.Err(); a write
// already handed to the leader's group commit runs to completion (the lake's
// commit is not interruptible mid-batch).
func (c *Cluster) IngestContext(ctx context.Context, m *model.Model, crd *card.Card, opts registry.RegisterOptions) (*registry.Record, error) {
	defer c.writes.Add(1)
	if opts.ID == "" {
		opts.ID = c.MintID()
	}
	return writeTo(ctx, c.owner(opts.ID), func(l *lake.Lake) (*registry.Record, error) {
		return l.IngestContext(ctx, m, crd, opts)
	})
}

// IngestAll is IngestAllContext with a background context.
func (c *Cluster) IngestAll(items []lake.IngestItem, parallelism int) ([]*registry.Record, []error) {
	return c.IngestAllContext(context.Background(), items, parallelism)
}

// IngestAllContext batch-ingests items, grouping them by owning shard and
// running the shard batches concurrently. Results and errors align with
// items. Cancellation is checked at the shard boundary: batches not yet
// submitted fail with ctx.Err(), already-running batches complete.
func (c *Cluster) IngestAllContext(ctx context.Context, items []lake.IngestItem, parallelism int) ([]*registry.Record, []error) {
	defer c.writes.Add(1)
	recs := make([]*registry.Record, len(items))
	errs := make([]error, len(items))
	groups := make([][]int, len(c.shards))
	for i := range items {
		if items[i].Opts.ID == "" {
			items[i].Opts.ID = c.MintID()
		}
		o := c.ring.Owner(items[i].Opts.ID)
		groups[o] = append(groups[o], i)
	}
	var wg sync.WaitGroup
	for si, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s *shard, idxs []int) {
			defer wg.Done()
			batch := make([]lake.IngestItem, len(idxs))
			for j, i := range idxs {
				batch[j] = items[i]
			}
			type batchResult struct {
				recs []*registry.Record
				errs []error
			}
			var used *lake.Lake
			res, err := writeTo(ctx, s, func(l *lake.Lake) (batchResult, error) {
				used = l
				r, e := l.IngestAllContext(ctx, batch, parallelism)
				return batchResult{r, e}, nil
			})
			for j, i := range idxs {
				if err != nil {
					errs[i] = err
					continue
				}
				recs[i] = res.recs[j]
				errs[i] = res.errs[j]
				// writeTo saw a nil error (per-item errors don't surface
				// there), so node failures inside the batch down the exact
				// leader that served it here — identity-checked, in case a
				// promotion already replaced it.
				if errs[i] != nil && isNodeFailure(errs[i]) {
					s.markLeaderDown(used)
				}
			}
		}(c.shards[si], idxs)
	}
	wg.Wait()
	return recs, errs
}

// RegisterDataset persists the dataset on every shard leader, so each
// shard's lineage reasoning (and replicas, via shipping) sees the full
// dataset version graph, and keeps its rows for the audit.
func (c *Cluster) RegisterDataset(ds *data.Dataset) error {
	c.bmu.Lock()
	c.datasets[ds.ID] = ds
	c.bmu.Unlock()
	for _, s := range c.shards {
		if _, err := writeTo(context.Background(), s, func(l *lake.Lake) (struct{}, error) {
			return struct{}{}, l.RegisterDataset(ds)
		}); err != nil {
			return err
		}
	}
	return nil
}

// RegisterBenchmark registers the benchmark on every node. Benchmarks are
// in-memory, so replicas need them directly (they never take writes) and
// restarted leaders get them replayed.
func (c *Cluster) RegisterBenchmark(b *benchmark.Benchmark) {
	c.bmu.Lock()
	c.benchmarks[b.ID] = b
	c.bmu.Unlock()
	for _, s := range c.shards {
		s.mu.RLock()
		nodes := make([]*lake.Lake, 0, 1+len(s.replicas))
		if s.leader != nil {
			nodes = append(nodes, s.leader)
		}
		for _, r := range s.replicas {
			if r.lk != nil { // vacant slots hold no node to register on
				nodes = append(nodes, r.lk)
			}
		}
		s.mu.RUnlock()
		for _, lk := range nodes {
			lk.RegisterBenchmark(b)
		}
	}
}

// Benchmarks lists the registered benchmarks sorted by ID.
func (c *Cluster) Benchmarks() []*benchmark.Benchmark {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	out := make([]*benchmark.Benchmark, 0, len(c.benchmarks))
	for _, b := range c.benchmarks {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// --- Routed reads -----------------------------------------------------

// Record returns the catalog record for id from its owning shard.
func (c *Cluster) Record(id string) (*registry.Record, error) {
	return readFrom(context.Background(), c.owner(id), c.pol, func(l *lake.Lake) (*registry.Record, error) {
		return l.Record(id)
	})
}

// Card returns the model card for id from its owning shard.
func (c *Cluster) Card(id string) (*card.Card, error) {
	return readFrom(context.Background(), c.owner(id), c.pol, func(l *lake.Lake) (*card.Card, error) {
		return l.Card(id)
	})
}

// Resolve maps name[@version] to an ID. Name registrations live on the
// owning shard of the ID they point at, so resolution asks each shard in
// turn.
func (c *Cluster) Resolve(name, ver string) (string, error) {
	for _, s := range c.shards {
		id, err := readFrom(context.Background(), s, c.pol, func(l *lake.Lake) (string, error) {
			return l.Resolve(name, ver)
		})
		if err == nil {
			return id, nil
		}
		if !errors.Is(err, registry.ErrNotFound) {
			return "", err
		}
	}
	return "", fmt.Errorf("%w: %s@%s", registry.ErrNotFound, name, ver)
}

// Count returns the total model count across shards.
func (c *Cluster) Count() int {
	total := 0
	for _, s := range c.shards {
		n, err := readFrom(context.Background(), s, c.pol, func(l *lake.Lake) (int, error) {
			return l.Count(), nil
		})
		if err == nil {
			total += n
		}
	}
	return total
}

// Records returns every catalog record across shards, sorted by ID — the
// same order a single-node registry scan yields.
func (c *Cluster) Records() ([]*registry.Record, error) {
	var out []*registry.Record
	for _, s := range c.shards {
		recs, err := readFrom(context.Background(), s, c.pol, (*lake.Lake).Records)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Score returns model modelID's score on benchID, computed on its owning
// shard (replicas recompute rather than cache — scores are deterministic).
func (c *Cluster) Score(modelID, benchID string) (float64, error) {
	return readFrom(context.Background(), c.owner(modelID), c.pol, func(l *lake.Lake) (float64, error) {
		return l.Score(modelID, benchID)
	})
}

// ProvenanceWhy explains an entity from the shard that recorded it. Model
// entities route by ID; anything else is asked of each shard in turn.
func (c *Cluster) ProvenanceWhy(entity string) (*provenance.Explanation, error) {
	if id, ok := strings.CutPrefix(entity, "model:"); ok {
		return readFrom(context.Background(), c.owner(id), c.pol, func(l *lake.Lake) (*provenance.Explanation, error) {
			return l.ProvenanceWhy(entity)
		})
	}
	var lastErr error
	for _, s := range c.shards {
		ex, err := readFrom(context.Background(), s, c.pol, func(l *lake.Lake) (*provenance.Explanation, error) {
			return l.ProvenanceWhy(entity)
		})
		if err == nil {
			return ex, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// --- Scatter-gather search --------------------------------------------

// SearchKeyword is SearchKeywordContext with a background context.
func (c *Cluster) SearchKeyword(query string, k int) []search.Hit {
	hits, _ := c.SearchKeywordContext(context.Background(), query, k)
	return hits
}

// SearchKeywordContext runs an exact cluster-wide BM25 search in two
// phases: gather every shard's corpus statistics for the query terms,
// merge them into global statistics, then have every shard rank its own
// documents under those global statistics and merge the per-shard top-k.
// Per-document scores are computed with the identical float operations in
// the identical order as a single index holding the union, and every
// document lives on exactly one shard, so the merged ranking is
// bitwise-identical to the single-node ranking.
func (c *Cluster) SearchKeywordContext(ctx context.Context, query string, k int) ([]search.Hit, error) {
	tokens := data.Tokenize(query)
	var global search.KeywordStats
	for _, s := range c.shards {
		st, err := readFrom(ctx, s, c.pol, func(l *lake.Lake) (search.KeywordStats, error) {
			return l.KeywordStatsFor(tokens), nil
		})
		if err != nil {
			return nil, err
		}
		global.Merge(st)
	}
	var all []search.Hit
	for _, s := range c.shards {
		hits, err := readFrom(ctx, s, c.pol, func(l *lake.Lake) ([]search.Hit, error) {
			return l.SearchKeywordWithStats(query, global, k)
		})
		if err != nil {
			return nil, err
		}
		all = append(all, hits...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// SearchByModel is SearchByModelContext with a background context.
func (c *Cluster) SearchByModel(id, space string, k int) ([]search.Hit, error) {
	return c.SearchByModelContext(context.Background(), id, space, k)
}

// SearchByModelContext runs a model-as-query vector search across the
// cluster: the owning shard embeds the query model, every shard returns
// its local top-(k+1) for the query vector, and the per-shard lists merge
// through the same bounded-heap selector the single-node index uses before
// the query model itself is excluded. Shards partition the population, so
// with the exact flat index the merged result is bitwise-identical —
// same IDs, same order, same distance bits, same tie-breaks — to a single
// lake holding the union.
func (c *Cluster) SearchByModelContext(ctx context.Context, id, space string, k int) ([]search.Hit, error) {
	v, err := readFrom(ctx, c.owner(id), c.pol, func(l *lake.Lake) (tensor.Vector, error) {
		return l.EmbedModelQuery(id, space)
	})
	if err != nil {
		return nil, err
	}
	lists := make([][]search.Hit, len(c.shards))
	for i, s := range c.shards {
		lists[i], err = readFrom(ctx, s, c.pol, func(l *lake.Lake) ([]search.Hit, error) {
			return l.SearchByVectorSpace(ctx, space, v, k+1)
		})
		if err != nil {
			return nil, err
		}
	}
	merged := search.MergeTopK(k+1, lists...)
	return search.ExcludeSelf(merged, id, k), nil
}

// SearchByModelMany runs SearchByModelContext for each ID with bounded
// parallelism, mirroring the single-node batch search.
func (c *Cluster) SearchByModelMany(ctx context.Context, ids []string, space string, k, parallelism int) ([][]search.Hit, []error) {
	hits := make([][]search.Hit, len(ids))
	errs := make([]error, len(ids))
	if parallelism <= 0 {
		parallelism = 4
	}
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			hits[i], errs[i] = c.SearchByModelContext(ctx, id, space, k)
		}(i, id)
	}
	wg.Wait()
	return hits, errs
}

// --- Catalog and applications -----------------------------------------

// The catalog and the §6 applications run over the cluster as one
// population (see internal/apps): records gather from every shard, each
// model, card and score reads from its owner, so the answers are the ones a
// single lake holding the union gives.

// Model returns a handle on model id from its owning shard.
func (c *Cluster) Model(id string) (*model.Handle, error) {
	return readFrom(context.Background(), c.owner(id), c.pol, func(l *lake.Lake) (*model.Handle, error) {
		return l.Model(id)
	})
}

// DatasetLineage returns the registered datasets' (ID → parent ID) map.
// RegisterDataset writes every dataset to every shard, so the first shard's
// copy is the cluster's.
func (c *Cluster) DatasetLineage() (map[string]string, error) {
	return readFrom(context.Background(), c.shards[0], c.pol, (*lake.Lake).DatasetLineage)
}

// Dataset returns a dataset registered through this cluster since it
// opened, or nil.
func (c *Cluster) Dataset(id string) *data.Dataset {
	c.bmu.Lock()
	defer c.bmu.Unlock()
	return c.datasets[id]
}

// Generation changes whenever the cluster's population may have: it is the
// count of routed writes that have returned plus the sum of the shards'
// leadership epochs, and both only grow.
func (c *Cluster) Generation() uint64 {
	g := c.writes.Load()
	for i := range c.shards {
		g += c.ShardEpoch(i)
	}
	return g
}

// Query parses and executes an MLQL query against the cluster.
func (c *Cluster) Query(q string) (*mlql.Result, error) {
	return c.QueryContext(context.Background(), q)
}

// QueryContext runs MLQL against the cluster's catalog.
func (c *Cluster) QueryContext(ctx context.Context, q string) (*mlql.Result, error) {
	return c.apps.Query(ctx, q)
}

// Catalog exposes the cluster's MLQL catalog.
func (c *Cluster) Catalog() mlql.Catalog { return c.apps.Catalog(context.Background()) }

// VersionGraphContext reconstructs (and caches) the Model Graph over every
// open-weights model in the cluster.
func (c *Cluster) VersionGraphContext(ctx context.Context) (*version.Graph, error) {
	return c.apps.VersionGraph(ctx)
}

// Cite builds a version-graph-anchored citation for the model. Its Snapshot
// is the model record's sequence number on the owning shard.
func (c *Cluster) Cite(id string) (provenance.Citation, error) {
	return c.apps.Cite(context.Background(), id)
}

// GenerateCardContext drafts documentation for the model from the whole
// cluster's population.
func (c *Cluster) GenerateCardContext(ctx context.Context, id string) (*docgen.Draft, error) {
	return c.apps.Draft(ctx, id)
}

// AuditContext audits the model against the whole cluster's population.
func (c *Cluster) AuditContext(ctx context.Context, id string, flagged map[string]string) (*audit.Report, error) {
	return c.apps.Audit(ctx, id, flagged)
}

// --- Operations -------------------------------------------------------

// ReplicaStatus is one replica slot's health in a Status report. Name is
// the node currently occupying the slot ("" = vacant, e.g. after its
// occupant was promoted to leader).
type ReplicaStatus struct {
	Name     string `json:"name"`
	Up       bool   `json:"up"`
	LagBytes int64  `json:"lag_bytes"`
}

// ShardStatus is one shard's health in a Status report. Leader names the
// node currently holding leadership (initially "leader"; a promoted replica
// keeps its node name, e.g. "replica0"), and Epoch is the leadership epoch —
// it increments on every promotion, so a changed Leader always comes with a
// changed Epoch.
type ShardStatus struct {
	Shard    int             `json:"shard"`
	Leader   string          `json:"leader"`
	Epoch    uint64          `json:"epoch"`
	LeaderUp bool            `json:"leader_up"`
	Models   int             `json:"models"`
	Replicas []ReplicaStatus `json:"replicas"`
}

// Status reports per-shard leadership (current leader node and epoch),
// model counts, and replica lag — the payload behind the server's
// /v1/cluster/status endpoint.
func (c *Cluster) Status() []ShardStatus {
	out := make([]ShardStatus, len(c.shards))
	for i, s := range c.shards {
		st := ShardStatus{Shard: s.idx, LeaderUp: s.leaderUp.Load()}
		var target int64
		s.mu.RLock()
		ldr := s.leader
		st.Leader = s.leaderName
		st.Epoch = s.epoch
		s.mu.RUnlock()
		if ldr != nil && st.LeaderUp {
			target = ldr.WALOffset()
		}
		if n, err := readFrom(context.Background(), s, c.pol, func(l *lake.Lake) (int, error) {
			return l.Count(), nil
		}); err == nil {
			st.Models = n
		}
		s.mu.RLock()
		for _, r := range s.replicas {
			rs := ReplicaStatus{Name: r.name, Up: r.up.Load()}
			if r.lk != nil && target > 0 {
				if rs.LagBytes = target - r.lk.WALOffset(); rs.LagBytes < 0 {
					rs.LagBytes = 0
				}
			}
			st.Replicas = append(st.Replicas, rs)
		}
		s.mu.RUnlock()
		out[i] = st
	}
	return out
}

// ShardEpoch returns shard i's current leadership epoch.
func (c *Cluster) ShardEpoch(i int) uint64 {
	s := c.shards[i]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// KillShardLeader simulates shard i's current leader process dying. With a
// live replica whose catch-up can be certified against the dead leader's
// log, the shard automatically promotes it and keeps taking writes.
func (c *Cluster) KillShardLeader(i int) { c.shards[i].KillLeader() }

// RestartShardLeader returns shard i's dead node(s) to service from their
// on-disk state on a healthy filesystem and re-registers the benchmark
// suite. A node deposed by a promotion rejoins as a replica (its
// unreplicated tail truncated at the promotion point); a node that is still
// the rightful leader reopens as leader.
func (c *Cluster) RestartShardLeader(i int) error {
	return c.shards[i].RestartLeader(nil, c.Benchmarks())
}

// FlushReplication blocks until every live replica of every shard has
// fully applied its leader's committed log.
func (c *Cluster) FlushReplication(ctx context.Context) error {
	for _, s := range c.shards {
		if err := s.FlushReplication(ctx); err != nil {
			return err
		}
	}
	return nil
}
