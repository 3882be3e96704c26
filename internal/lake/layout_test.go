package lake

// What an ingest may write, and where. The vec/<id> record inside the
// metadata log is the only durable copy of an embedding, so batch ingest is
// blob publishes plus WAL appends and a lake directory is the log, the blobs
// and the derived tiers the config asked for — nothing else. These tests pin
// both, so a new per-model file or a fifth derived directory can only arrive
// on purpose.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"modellake/internal/fault"
	"modellake/internal/lakegen"
)

// ingestOps runs one IngestAll of pop on a fresh durable lake and returns the
// IO operations issued between Open returning and Close starting, with paths
// made relative to the lake directory.
func ingestOps(t *testing.T, pop *lakegen.Population, sync bool) []fault.OpRecord {
	t.Helper()
	dir := t.TempDir()
	rec := &fault.Recorder{}
	l, err := Open(Config{Dir: dir, Sync: sync, Seed: 1, FS: fault.New(rec)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	before := len(rec.Ops())
	ingestAll(t, l, pop)
	ops := rec.Ops()[before:]
	for i := range ops {
		rel, err := filepath.Rel(dir, ops[i].Path)
		if err != nil {
			t.Fatal(err)
		}
		ops[i].Path = filepath.ToSlash(rel)
	}
	return ops
}

// TestIngestIOBudget: on a Sync:false lake the only fsyncs of a batch ingest
// are the blob store's (per-blob atomic publish), and turning Sync on adds
// WAL commits and nothing else.
func TestIngestIOBudget(t *testing.T) {
	isFsync := func(op fault.Op) bool { return op == fault.OpSync || op == fault.OpSyncDir }
	// tally counts ops by kind and top-level directory entry, leaving out
	// the WAL's own fsyncs.
	tally := func(ops []fault.OpRecord) (byKind map[string]int, walSyncs int) {
		byKind = map[string]int{}
		for _, op := range ops {
			if op.Op == fault.OpSync && op.Path == "lake.log" {
				walSyncs++
				continue
			}
			top, _, _ := strings.Cut(op.Path, "/")
			byKind[string(op.Op)+" "+top]++
		}
		return byKind, walSyncs
	}

	pop := widePopulation(t, 53, 65)
	pop.Members = pop.Members[:64]
	lazy := ingestOps(t, pop, false)
	for _, op := range lazy {
		if isFsync(op.Op) && !strings.HasPrefix(op.Path, "blobs/") {
			t.Errorf("Sync:false ingest issued %s on %s; only blobs/ may be fsynced", op.Op, op.Path)
		}
	}
	lazyKinds, lazyWAL := tally(lazy)
	if lazyWAL != 0 {
		t.Errorf("Sync:false ingest fsynced the metadata log %d times", lazyWAL)
	}
	if lazyKinds["write lake.log"] == 0 || lazyKinds["sync blobs"] == 0 {
		t.Fatalf("workload not exercised: %v", lazyKinds)
	}

	durable := ingestOps(t, pop, true)
	for _, op := range durable {
		if isFsync(op.Op) && !strings.HasPrefix(op.Path, "blobs/") && op.Path != "lake.log" {
			t.Errorf("Sync:true ingest issued %s on %s; only blobs/ and lake.log may be fsynced", op.Op, op.Path)
		}
	}
	durableKinds, durableWAL := tally(durable)
	// A commit is one fsync behind one or more appends (the ID lease, the
	// chunk's atomic batch), never more than one per append.
	if appends := durableKinds["write lake.log"]; durableWAL < 1 || durableWAL > appends {
		t.Errorf("Sync:true ingest fsynced the metadata log %d times for %d appends", durableWAL, appends)
	}
	if fmt.Sprint(durableKinds) != fmt.Sprint(lazyKinds) {
		t.Errorf("Sync:true changed more than WAL commits:\n sync=false %v\n sync=true  %v", lazyKinds, durableKinds)
	}
}

// TestLakeDirLayout: after ingest and Close the lake directory's top level
// is the metadata log and the blob store, plus the vector segments when
// DiskResidentVectors moved them to disk — never anything for the keyword
// postings, which are RAM state whatever DiskResidentPostings says. It
// holds also after a reopen (segment adoption, keyword drain), and also
// when the directory was written before vec records became the only
// durable embeddings and still carries the per-model cache files: Open
// reclaims those and the lake answers as before.
func TestLakeDirLayout(t *testing.T) {
	pop := widePopulation(t, 59, 40)
	cases := []struct {
		name string
		cfg  Config
		want []string
	}{
		{"blobs+lake.log", Config{}, []string{"blobs", "lake.log"}},
		{"blobs+lake.log+vectors", Config{DiskResidentVectors: true}, []string{"blobs", "lake.log", "vectors"}},
		{"DiskResidentPostings", Config{DiskResidentPostings: true}, []string{"blobs", "lake.log"}},
		{"DiskResidentPostings+DiskResidentVectors+PQ",
			Config{DiskResidentVectors: true, DiskResidentPostings: true, PQSubspaces: 4},
			[]string{"blobs", "lake.log", "vectors"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Dir, cfg.Seed = t.TempDir(), 1
			var id, before string
			for gen := 0; gen < 2; gen++ {
				if gen == 1 {
					stale := filepath.Join(cfg.Dir, "embedcache", "x")
					if err := os.MkdirAll(stale, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(stale, "y.vec"), []byte("leftover"), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				l, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if gen == 0 {
					id = ingestAll(t, l, pop)[0]
				}
				related, err := l.SearchByModel(id, "behavior", 4)
				if err != nil {
					t.Fatal(err)
				}
				keyword, err := l.SearchKeywordContext(context.Background(), wideQuery, 5)
				if err != nil {
					t.Fatal(err)
				}
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				if answers := fmt.Sprint(related, keyword); gen == 0 {
					before = answers
				} else if answers != before {
					t.Fatalf("answers changed across the reopen:\n before %s\n after  %s", before, answers)
				}
				entries, err := os.ReadDir(cfg.Dir)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, e := range entries {
					got = append(got, e.Name())
				}
				sort.Strings(got)
				if fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Fatalf("generation %d: lake directory holds %v, want %v", gen, got, tc.want)
				}
			}
		})
	}
}
