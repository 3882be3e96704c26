package lake

import (
	"fmt"
	"testing"

	"strings"

	"modellake/internal/fault"
	"modellake/internal/lakegen"
	"modellake/internal/registry"
)

// End-to-end crash sweep: every storage IO operation performed while
// ingesting models is failed in turn, and after each fault the lake must
// reopen cleanly with every *acknowledged* ingest fully intact — record,
// card, and loadable weights. An unacknowledged ingest may have left partial
// (but internally consistent) state or none at all; it must never prevent
// recovery. This is the "zero silent data loss" acceptance gate.

// crashPopulation generates a tiny six-model population: one trained base
// and five fine-tuned children, enough to exercise blob writes, registry
// multi-key commits, and provenance journaling, with faults landing both
// before any ingest is acknowledged and after several are.
func crashPopulation(t *testing.T) *lakegen.Population {
	t.Helper()
	spec := lakegen.DefaultSpec(42)
	spec.NumBases = 1
	spec.ChildrenPerBase = 5
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

// lakeWorkload opens a lake over dir with the given injected filesystem and
// ingests the population, returning name→ID for every acknowledged ingest.
// Open failing counts as nothing acknowledged.
func lakeWorkload(dir string, fsys *fault.FS, pop *lakegen.Population) map[string]string {
	acked := map[string]string{}
	l, err := Open(Config{Dir: dir, Sync: true, Seed: 1, FS: fsys})
	if err != nil {
		return acked
	}
	for _, m := range pop.Members {
		rec, err := l.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name, Version: "1"})
		if err == nil {
			acked[m.Truth.Name] = rec.ID
		}
	}
	l.Close()
	return acked
}

func TestLakeCrashSweep(t *testing.T) {
	pop := crashPopulation(t)

	rec := &fault.Recorder{}
	lakeWorkload(t.TempDir(), fault.New(rec), pop)
	n := len(rec.Ops())
	// A durable ingest is a seven-op blob publish (mkdir, create, write,
	// sync, close, rename, syncdir) plus a WAL append and its fsync.
	if n < 9*len(pop.Members) {
		t.Fatalf("ingest workload exercised only %d IO ops for %d models; sweep too small", n, len(pop.Members))
	}

	for i := 1; i <= n; i++ {
		t.Run(fmt.Sprintf("op-%02d", i), func(t *testing.T) {
			dir := t.TempDir()
			acked := lakeWorkload(dir, fault.New(&fault.Script{FailAt: i, Torn: 11}), pop)

			clean, err := Open(Config{Dir: dir, Sync: true, Seed: 1})
			if err != nil {
				t.Fatalf("lake must reopen after a single IO fault, got: %v", err)
			}
			defer clean.Close()
			for name, id := range acked {
				r, err := clean.Record(id)
				if err != nil {
					t.Fatalf("acknowledged model %q (%s) lost its record: %v", name, id, err)
				}
				if r.Name != name {
					t.Fatalf("record for %s has name %q, want %q", id, r.Name, name)
				}
				if _, err := clean.Model(id); err != nil {
					t.Fatalf("acknowledged model %q (%s) lost its weights: %v", name, id, err)
				}
			}
			if clean.Count() < len(acked) {
				t.Fatalf("recovered %d models, acknowledged %d", clean.Count(), len(acked))
			}
		})
	}
}

// TestLakeReopensAfterPartialIngest pins that a fault inside the registry's
// multi-key commit cannot wedge rehydration: the sweep above covers every op
// index, but this case documents the specific hazard (a record without its
// dependent keys) with a targeted mid-commit fault.
func TestLakeReopensAfterPartialIngest(t *testing.T) {
	pop := crashPopulation(t)
	dir := t.TempDir()

	// Fail the first metadata-log fsync (matched by path: ingest syncs the
	// weights blob first): the kvstore rolls the log back and the caller
	// gets an error with nothing committed.
	fsys := fault.New(&fault.Script{FailAt: 1, Match: func(op fault.Op, path string) bool {
		return op == fault.OpSync && strings.HasSuffix(path, "lake.log")
	}})
	l, err := Open(Config{Dir: dir, Sync: true, Seed: 1, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	m := pop.Members[0]
	if _, err := l.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name}); err == nil {
		t.Fatal("injected fsync fault did not surface through Ingest")
	}
	l.Close()

	clean, err := Open(Config{Dir: dir, Sync: true, Seed: 1})
	if err != nil {
		t.Fatalf("lake must reopen after failed ingest, got: %v", err)
	}
	defer clean.Close()
	if got := clean.Count(); got != 0 {
		t.Fatalf("failed ingest left %d models behind", got)
	}
	// And the store still works: the same ingest succeeds on the clean lake.
	if _, err := clean.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: m.Truth.Name}); err != nil {
		t.Fatalf("reingest after recovery failed: %v", err)
	}
}
