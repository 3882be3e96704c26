package lake

// The query vector of a lake model is the row its index stores. These tests
// pin that the stored row is the embedder's own bits on every vector
// configuration and at every stage of a lake's life, that a search built on
// it answers like one built on a fresh embed, and that serving reads never
// touch the weights.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"modellake/internal/fault"
	"modellake/internal/obs"
	"modellake/internal/registry"
	"modellake/internal/search"
	"modellake/internal/tensor"
)

// vectorConfigs are the three vector configurations scale_test.go compares.
var vectorConfigs = []struct {
	name string
	cfg  Config
}{
	{"flat", Config{}},
	{"int8+disk", Config{DiskResidentVectors: true}},
	{"pq+disk", Config{PQSubspaces: 8, DiskResidentVectors: true}},
}

func sameBits(t *testing.T, label string, got, want tensor.Vector) {
	t.Helper()
	if !vecEqual(got, want) {
		t.Fatalf("%s: %v, want %v", label, got, want)
	}
}

// checkQueryVectors holds every model of l, in both spaces, to the contract:
// EmbedModelQuery is a fresh embed of the model's weights and the vec/<id>
// record, bit for bit, and SearchByModelContext is the raw scan around the
// fresh embed minus the model itself. A space that cannot embed a model must
// say so with the embedder's own error.
func checkQueryVectors(t *testing.T, stage string, l *Lake, ids []string) {
	t.Helper()
	ctx := context.Background()
	for _, id := range ids {
		h, err := l.Model(id)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		b, err := l.kv.Get(vecKey(id))
		if err != nil {
			t.Fatalf("%s %s: vec record: %v", stage, id, err)
		}
		_, stored, err := decodeVecRecord(b)
		if err != nil {
			t.Fatalf("%s %s: vec record: %v", stage, id, err)
		}
		for _, space := range []string{"behavior", "weights"} {
			label := fmt.Sprintf("%s %s/%s", stage, id, space)
			cs, _ := l.contentSearcher(space)
			fresh, ferr := cs.EmbedQuery(h)
			got, gerr := l.EmbedModelQuery(id, space)
			if ferr != nil {
				if gerr == nil || gerr.Error() != ferr.Error() {
					t.Fatalf("%s: EmbedModelQuery err = %v, a fresh embed fails with %v", label, gerr, ferr)
				}
				if _, err := l.SearchByModelContext(ctx, id, space, 5); err == nil || err.Error() != ferr.Error() {
					t.Fatalf("%s: SearchByModelContext err = %v, want %v", label, err, ferr)
				}
				continue
			}
			if gerr != nil {
				t.Fatalf("%s: EmbedModelQuery: %v", label, gerr)
			}
			sameBits(t, label+" vs fresh embed", got, fresh)
			found := false
			for _, sv := range stored {
				if sv.Space == cs.EmbedderName() {
					found = true
					sameBits(t, label+" vs vec record", got, sv.Vec)
				}
			}
			if !found {
				t.Fatalf("%s: vec record holds no %s vector", label, cs.EmbedderName())
			}
			raw, err := l.SearchByVectorSpace(ctx, space, fresh, 6)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			hits, err := l.SearchByModelContext(ctx, id, space, 5)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameHits(t, label, hits, search.ExcludeSelf(raw, id, 5))
		}
	}
}

func idList(ids map[int]string) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}

func TestQueryVectorIsStoredRow(t *testing.T) {
	pop := population(t, 83)
	for _, vc := range vectorConfigs {
		t.Run(vc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := vc.cfg
			cfg.Dir, cfg.Seed, cfg.Sync = filepath.Join(dir, "leader"), 3, true
			l, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { l.Close() }()
			ids := idList(fill(t, l, pop))
			checkQueryVectors(t, "fresh ingest", l, ids)

			bcfg := vc.cfg
			bcfg.Dir, bcfg.Seed = filepath.Join(dir, "batch"), 3
			batch, err := Open(bcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer batch.Close()
			checkQueryVectors(t, "batch ingest", batch, ingestAll(t, batch, pop))

			fcfg := vc.cfg
			fcfg.Dir, fcfg.Seed = filepath.Join(dir, "follower"), 3
			fcfg.BlobDir, fcfg.Follower = filepath.Join(cfg.Dir, "blobs"), true
			follower, err := Open(fcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer follower.Close()
			shipAll(t, l, follower)
			checkQueryVectors(t, "follower", follower, ids)

			// A closed-weights model has no vec record and no blob: its
			// rows exist only in the live indexes.
			m0 := pop.Members[0]
			closedModel := *m0.Model
			closedModel.ID = ""
			rec, err := l.Ingest(&closedModel, m0.Card, registry.RegisterOptions{
				Name: "closed", Version: "1", WithholdWeights: true})
			if err != nil {
				t.Fatal(err)
			}
			live, err := l.Model(rec.ID)
			if err != nil {
				t.Fatal(err)
			}
			for _, space := range []string{"behavior", "weights"} {
				cs, _ := l.contentSearcher(space)
				want, err := cs.EmbedQuery(live)
				if err != nil {
					t.Fatal(err)
				}
				got, err := l.EmbedModelQuery(rec.ID, space)
				if err != nil {
					t.Fatalf("live closed-weights model, %s: %v", space, err)
				}
				sameBits(t, "live closed-weights model/"+space, got, want)
			}

			// Twice: the first reopen of a disk configuration builds the
			// segment from the tail's records, the second adopts it.
			for _, stage := range []string{"reopen", "second reopen"} {
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if l, err = Open(cfg); err != nil {
					t.Fatal(err)
				}
				checkQueryVectors(t, stage, l, ids)
				for _, space := range []string{"behavior", "weights"} {
					if _, err := l.EmbedModelQuery(rec.ID, space); !errors.Is(err, registry.ErrNoWeights) {
						t.Fatalf("%s: closed-weights model, %s: err = %v, want %v", stage, space, err, registry.ErrNoWeights)
					}
					if _, err := l.SearchByModel(rec.ID, space, 5); !errors.Is(err, registry.ErrNoWeights) {
						t.Fatalf("%s: closed-weights search, %s: err = %v, want %v", stage, space, err, registry.ErrNoWeights)
					}
				}
			}
			if _, err := l.EmbedModelQuery("m-nope", ""); !errors.Is(err, registry.ErrNotFound) {
				t.Fatalf("unknown id: err = %v, want %v", err, registry.ErrNotFound)
			}
			if _, err := l.SearchByModel("m-nope", "", 5); !errors.Is(err, registry.ErrNotFound) {
				t.Fatalf("unknown id search: err = %v, want %v", err, registry.ErrNotFound)
			}
		})
	}
}

// blobGets reads the blob store's process-wide get counter.
func blobGets() uint64 {
	return obs.Default().Counter("blob_ops_total", obs.L("op", "get")).Value()
}

// TestServingReadsLoadNoWeights: on a reopened lake, related, batch-related
// and hybrid queries for every model read no blob, load no model, and run no
// embedder — each query vector is a stored row.
func TestServingReadsLoadNoWeights(t *testing.T) {
	pop := population(t, 84)
	for _, vc := range vectorConfigs {
		t.Run(vc.name, func(t *testing.T) {
			cfg := vc.cfg
			cfg.Dir, cfg.Seed = t.TempDir(), 4
			l, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ids := idList(fill(t, l, pop))
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			rec := &fault.Recorder{}
			cfg.FS = fault.New(rec)
			if l, err = Open(cfg); err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			opened := len(rec.Ops())
			gets0, misses0, hits0 := blobGets(), mEmbedMisses.Value(), mEmbedHits.Value()

			ctx := context.Background()
			queries := 0
			for _, space := range []string{"behavior", "weights"} {
				for _, id := range ids {
					if _, err := l.SearchByModelContext(ctx, id, space, 5); err != nil {
						t.Fatal(err)
					}
				}
				_, errs := l.SearchByModelMany(ctx, ids, space, 5, 2)
				for _, err := range errs {
					if err != nil {
						t.Fatal(err)
					}
				}
				queries += 2 * len(ids)
			}
			for _, id := range ids {
				if _, err := l.SearchHybrid("legal statute", id, 5); err != nil {
					t.Fatal(err)
				}
			}
			queries += len(ids)

			for _, op := range rec.Ops()[opened:] {
				if strings.Contains(filepath.ToSlash(op.Path), "/blobs") {
					t.Fatalf("serving touched the blob store: %s %s", op.Op, op.Path)
				}
			}
			if n := blobGets() - gets0; n != 0 {
				t.Fatalf("serving read %d blobs", n)
			}
			l.mu.RLock()
			loaded := len(l.modelCache)
			l.mu.RUnlock()
			if loaded != 0 {
				t.Fatalf("serving loaded %d models", loaded)
			}
			if n := mEmbedMisses.Value() - misses0; n != 0 {
				t.Fatalf("serving ran an embedder %d times", n)
			}
			if n := mEmbedHits.Value() - hits0; n != uint64(queries) {
				t.Fatalf("%d query vectors served from stored rows, want %d", n, queries)
			}
		})
	}
}

// seriesValue reads an unlabelled series the way /metrics exports it.
func seriesValue(t *testing.T, name string) float64 {
	t.Helper()
	for _, s := range obs.Default().Snapshot() {
		if s.Name == name && s.Labels == "" {
			return s.Value
		}
	}
	t.Fatalf("series %s is not registered", name)
	return 0
}

// TestCacheSeriesCountEveryLake: the cache series are process-wide, so a lake
// keeps reporting after another one opens (a cluster opens one per shard and
// replica; the last opened is a replica that serves nothing).
func TestCacheSeriesCountEveryLake(t *testing.T) {
	first, err := Open(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	ids := fill(t, first, population(t, 85))
	second, err := Open(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()

	names := []string{"lake_query_cache_misses_total", "lake_query_cache_hits_total",
		"lake_embed_cache_hits_total", "lake_embed_cache_misses_total"}
	before := map[string]float64{}
	for _, n := range names {
		before[n] = seriesValue(t, n)
	}
	for i := 0; i < 2; i++ { // a miss, then a hit
		if _, err := first.SearchByModel(ids[0], "behavior", 5); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []float64{1, 1, 2, 0} {
		if got := seriesValue(t, names[i]) - before[names[i]]; got != want {
			t.Fatalf("%s moved by %v after two queries of the first lake, want %v", names[i], got, want)
		}
	}
}
