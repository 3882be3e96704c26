package lake

import (
	"fmt"
	"testing"

	"modellake/internal/registry"
	"modellake/internal/search"
)

// fillBatch ingests a population through IngestAll (the parallel pipeline)
// instead of the serial Ingest loop fill uses.
func fillBatch(t *testing.T, l *Lake, pop []IngestItem, parallelism int) []*registry.Record {
	t.Helper()
	recs, errs := l.IngestAll(pop, parallelism)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("IngestAll[%d]: %v", i, err)
		}
	}
	return recs
}

// TestIngestAllMatchesSerialIngest: a lake populated through the parallel
// batch path must answer every search modality identically to a lake
// populated with a serial Ingest loop over the same models in the same
// order.
func TestIngestAllMatchesSerialIngest(t *testing.T) {
	pop := population(t, 61)

	serial, err := Open(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	for _, m := range pop.Members {
		if _, err := serial.Ingest(m.Model, m.Card, registry.RegisterOptions{
			Name: m.Truth.Name, Version: "1",
		}); err != nil {
			t.Fatal(err)
		}
	}

	parallel, err := Open(Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer parallel.Close()
	items := make([]IngestItem, len(pop.Members))
	for i, m := range pop.Members {
		items[i] = IngestItem{Model: m.Model, Card: m.Card,
			Opts: registry.RegisterOptions{Name: m.Truth.Name, Version: "1"}}
	}
	recs := fillBatch(t, parallel, items, 8)

	if serial.Count() != parallel.Count() {
		t.Fatalf("counts differ: serial %d, parallel %d", serial.Count(), parallel.Count())
	}
	compare := func(space string) {
		for _, rec := range recs {
			want, err := serial.SearchByModel(rec.ID, space, 4)
			if err != nil {
				t.Fatalf("serial search %s/%s: %v", space, rec.ID, err)
			}
			got, err := parallel.SearchByModel(rec.ID, space, 4)
			if err != nil {
				t.Fatalf("parallel search %s/%s: %v", space, rec.ID, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s search for %s differs:\n serial   %v\n parallel %v",
					space, rec.ID, want, got)
			}
		}
	}
	compare("behavior")
	compare("weights")

	// Keyword search over the batch-ingested cards matches too.
	for _, q := range []string{"legal", "medical summarization", "finance model"} {
		want := serial.SearchKeyword(q, 5)
		got := parallel.SearchKeyword(q, 5)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("keyword %q differs:\n serial   %v\n parallel %v", q, want, got)
		}
	}

	// Task search sees the same roster.
	ds := pop.Datasets[pop.Members[0].Truth.DatasetID]
	examples := search.DatasetAsTask(ds, 16)
	want, err := serial.SearchTask(examples, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parallel.SearchTask(examples, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("task search differs:\n serial   %v\n parallel %v", want, got)
	}
}

// TestIngestAllPartialFailure: a duplicate name@version inside the batch
// fails its slot; the rest of the batch lands.
func TestIngestAllPartialFailure(t *testing.T) {
	pop := population(t, 62)
	l, err := Open(Config{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	items := []IngestItem{
		{Model: pop.Members[0].Model, Card: pop.Members[0].Card,
			Opts: registry.RegisterOptions{Name: "dup", Version: "1"}},
		{Model: pop.Members[1].Model, Card: pop.Members[1].Card,
			Opts: registry.RegisterOptions{Name: "dup", Version: "1"}},
		{Model: pop.Members[2].Model, Card: pop.Members[2].Card,
			Opts: registry.RegisterOptions{Name: "ok", Version: "1"}},
	}
	recs, errs := l.IngestAll(items, 4)
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("clean items failed: %v", errs)
	}
	if errs[1] == nil {
		t.Fatal("duplicate name@version not reported")
	}
	if recs[1] != nil {
		t.Fatal("failed item produced a record")
	}
	if l.Count() != 2 {
		t.Fatalf("count = %d, want 2", l.Count())
	}
}

// TestDurableLakeReopenUsesEmbedCache: a reopen rebuilds the indexes from
// the persisted vec records — zero embeds — and answers identically.
func TestDurableLakeReopenUsesEmbedCache(t *testing.T) {
	pop := population(t, 64)
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	ids := fill(t, l, pop)
	var want []search.Hit
	if want, err = l.SearchByModel(ids[0], "weights", 4); err != nil {
		t.Fatal(err)
	}
	id0 := ids[0]
	l.Close()

	embeds0 := mEmbedMisses.Value()
	re, err := Open(Config{Dir: dir, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if n := mEmbedMisses.Value() - embeds0; n != 0 {
		t.Fatalf("vec-record rehydration ran an embedder %d times", n)
	}
	got, err := re.SearchByModel(id0, "weights", 4)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("vec-record rehydration changed results:\n before %v\n after  %v", want, got)
	}
}
