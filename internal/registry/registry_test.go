package registry

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"modellake/internal/blob"
	"modellake/internal/card"
	"modellake/internal/kvstore"
	"modellake/internal/model"
	"modellake/internal/nn"
	"modellake/internal/xrand"
)

func sampleModel(seed uint64) *model.Model {
	net := nn.NewMLP([]int{4, 8, 3}, nn.ReLU, xrand.New(seed))
	return &model.Model{
		Name: "sample",
		Net:  net,
		Hist: &model.History{
			DatasetID:      "legal/v1",
			DatasetDomain:  "legal",
			Transformation: model.TransformPretrain,
		},
	}
}

func sampleCard() *card.Card {
	return &card.Card{
		Name:         "sample",
		Domain:       "legal",
		Task:         "classification",
		TrainingData: "legal/v1",
		Description:  "a legal classifier",
	}
}

func TestRegisterAndLoad(t *testing.T) {
	r := NewInMemory()
	m := sampleModel(1)
	rec, err := r.Register(m, sampleCard(), RegisterOptions{Name: "legal-clf", Version: "1"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID == "" || m.ID != rec.ID {
		t.Fatalf("ID not assigned: rec=%q model=%q", rec.ID, m.ID)
	}
	if rec.Arch != "mlp:4-8-3:relu" || rec.NumParams != m.Net.NumParams() {
		t.Fatalf("record metadata wrong: %+v", rec)
	}
	loaded, err := r.LoadModel(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	d, err := nn.WeightDistance(m.Net, loaded.Net)
	if err != nil || d != 0 {
		t.Fatalf("loaded weights differ: %v %v", d, err)
	}
	if loaded.Hist == nil || loaded.Hist.DatasetDomain != "legal" {
		t.Fatalf("declared history lost: %+v", loaded.Hist)
	}
}

func TestRegisterAssignsSequentialIDs(t *testing.T) {
	r := NewInMemory()
	for i := 0; i < 3; i++ {
		m := sampleModel(uint64(i))
		m.Name = ""
		rec, err := r.Register(m, nil, RegisterOptions{Name: "m", Version: string(rune('a' + i))})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", rec.Seq, i+1)
		}
	}
	if r.Count() != 3 {
		t.Fatalf("Count = %d, want 3", r.Count())
	}
}

func TestDuplicateNameVersionRejected(t *testing.T) {
	r := NewInMemory()
	if _, err := r.Register(sampleModel(1), nil, RegisterOptions{Name: "x", Version: "1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register(sampleModel(2), nil, RegisterOptions{Name: "x", Version: "1"}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("expected ErrDuplicate, got %v", err)
	}
	if _, err := r.Register(sampleModel(3), nil, RegisterOptions{Name: "x", Version: "2"}); err != nil {
		t.Fatalf("new version should register: %v", err)
	}
}

func TestResolve(t *testing.T) {
	r := NewInMemory()
	rec, err := r.Register(sampleModel(1), nil, RegisterOptions{Name: "x", Version: "2"})
	if err != nil {
		t.Fatal(err)
	}
	id, err := r.Resolve("x", "2")
	if err != nil || id != rec.ID {
		t.Fatalf("Resolve = %q, %v", id, err)
	}
	if _, err := r.Resolve("x", "9"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound, got %v", err)
	}
}

func TestCardStorage(t *testing.T) {
	r := NewInMemory()
	rec, err := r.Register(sampleModel(1), sampleCard(), RegisterOptions{Name: "c"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.Card(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if c.ModelID != rec.ID || c.Domain != "legal" {
		t.Fatalf("card = %+v", c)
	}
	// Update the card.
	c.Limitations = "research only"
	if err := r.PutCard(rec.ID, c); err != nil {
		t.Fatal(err)
	}
	c2, err := r.Card(rec.ID)
	if err != nil || c2.Limitations != "research only" {
		t.Fatalf("card update lost: %+v %v", c2, err)
	}
	if err := r.PutCard("m-999999", c); !errors.Is(err, ErrNotFound) {
		t.Fatalf("PutCard on missing model: %v", err)
	}
}

func TestCardlessModel(t *testing.T) {
	r := NewInMemory()
	rec, err := r.Register(sampleModel(1), nil, RegisterOptions{Name: "bare"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Card(rec.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expected ErrNotFound for missing card, got %v", err)
	}
}

func TestWithheldWeights(t *testing.T) {
	r := NewInMemory()
	rec, err := r.Register(sampleModel(1), nil, RegisterOptions{Name: "closed", WithholdWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Weights != "" {
		t.Fatal("weights stored despite withholding")
	}
	if _, err := r.LoadModel(rec.ID); !errors.Is(err, ErrNoWeights) {
		t.Fatalf("expected ErrNoWeights, got %v", err)
	}
	// Architecture metadata is still recorded (it is declared, not weights).
	if rec.Arch == "" {
		t.Fatal("architecture should still be recorded")
	}
}

func TestListOrder(t *testing.T) {
	r := NewInMemory()
	var ids []string
	for i := 0; i < 5; i++ {
		rec, err := r.Register(sampleModel(uint64(i)), nil,
			RegisterOptions{Name: "m", Version: string(rune('a' + i))})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, rec.ID)
	}
	recs, err := r.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("List returned %d records", len(recs))
	}
	for i, rec := range recs {
		if rec.ID != ids[i] {
			t.Fatalf("List order: got %s at %d, want %s", rec.ID, i, ids[i])
		}
	}
}

func TestDelete(t *testing.T) {
	r := NewInMemory()
	rec, err := r.Register(sampleModel(1), sampleCard(), RegisterOptions{Name: "d"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(rec.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(rec.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("record survives delete: %v", err)
	}
	if _, err := r.Card(rec.ID); !errors.Is(err, ErrNotFound) {
		t.Fatal("card survives delete")
	}
	if _, err := r.Resolve("d", "1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("name index survives delete")
	}
	if err := r.Delete("m-404040"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleting missing model: %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewInMemory()
	if _, err := r.Register(nil, nil, RegisterOptions{}); err == nil {
		t.Fatal("nil model accepted")
	}
	m := sampleModel(1)
	m.Name = ""
	if _, err := r.Register(m, nil, RegisterOptions{}); err == nil {
		t.Fatal("nameless model accepted")
	}
}

func TestDurableRegistrySurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	kv, err := kvstore.Open(filepath.Join(dir, "meta.log"), kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := blob.NewFileStore(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	r := New(kv, blobs)
	orig := sampleModel(1)
	rec, err := r.Register(orig, sampleCard(), RegisterOptions{Name: "durable"})
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv2, err := kvstore.Open(filepath.Join(dir, "meta.log"), kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	r2 := New(kv2, blobs)
	loaded, err := r2.LoadModel(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	d, err := nn.WeightDistance(orig.Net, loaded.Net)
	if err != nil || d != 0 {
		t.Fatalf("weights differ after reopen: %v %v", d, err)
	}
	// Sequence counter continues, so new registrations do not collide.
	rec2, err := r2.Register(sampleModel(2), nil, RegisterOptions{Name: "post-reopen"})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.ID == rec.ID {
		t.Fatal("sequence counter reset after reopen")
	}
}

func TestCardFallbackMetadata(t *testing.T) {
	// When the model has no History, declared fields fall back to the card.
	r := NewInMemory()
	m := sampleModel(1)
	m.Hist = nil
	c := sampleCard()
	c.BaseModel = "m-000042"
	rec, err := r.Register(m, c, RegisterOptions{Name: "fb"})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Domain != "legal" || rec.DeclaredData != "legal/v1" {
		t.Fatalf("card fallback not applied: %+v", rec)
	}
	if len(rec.DeclaredBases) != 1 || rec.DeclaredBases[0] != "m-000042" {
		t.Fatalf("base fallback not applied: %+v", rec.DeclaredBases)
	}
}

func TestCorruptRecordSurfacedByGetAndList(t *testing.T) {
	kv := kvstore.OpenMemory()
	r := New(kv, blob.NewMemStore())
	rec, err := r.Register(sampleModel(1), nil, RegisterOptions{Name: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	// Smash the stored record JSON directly.
	if err := kv.Put("model/"+rec.ID, []byte("{broken")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(rec.ID); err == nil {
		t.Fatal("corrupt record decoded silently")
	}
	if _, err := r.List(); err == nil {
		t.Fatal("List decoded corrupt record silently")
	}
}

func TestCorruptCardSurfaced(t *testing.T) {
	kv := kvstore.OpenMemory()
	r := New(kv, blob.NewMemStore())
	rec, err := r.Register(sampleModel(1), sampleCard(), RegisterOptions{Name: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("card/"+rec.ID, []byte("not json")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Card(rec.ID); err == nil {
		t.Fatal("corrupt card decoded silently")
	}
}

// TestRecordFromOlderTreeDecodes: records written before the weights_fp field
// was dropped still carry it. Such a record must decode to the same Record a
// current tree would have written, and re-encode without the key.
func TestRecordFromOlderTreeDecodes(t *testing.T) {
	const fp = `,"weights_fp":"7f45f3e90476c88d2322cd6148f43e2749cef7f64bdde2429b119a088a971d27"`
	const old = `{"id":"m-000002","name":"legal-finetune-2","version":"1","seq":2,"arch":"mlp:8-16-3:relu","num_params":195,` +
		`"weights":"2bb273b412de103298b4af9839b7f8b07ea21e9315aab9ae1fc410c310d62611"` + fp +
		`,"declared_bases":["legal-base"],"declared_data":"legal/v1.2","domain":"legal","tags":["demo"]}`
	kv := kvstore.OpenMemory()
	r := New(kv, blob.NewMemStore())
	if err := kv.Put(modelKey("m-000002"), []byte(old)); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get("m-000002")
	if err != nil {
		t.Fatal(err)
	}
	want := &Record{
		ID: "m-000002", Name: "legal-finetune-2", Version: "1", Seq: 2,
		Arch: "mlp:8-16-3:relu", NumParams: 195,
		Weights:       "2bb273b412de103298b4af9839b7f8b07ea21e9315aab9ae1fc410c310d62611",
		DeclaredBases: []string{"legal-base"}, DeclaredData: "legal/v1.2", Domain: "legal",
		Tags: []string{"demo"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	enc, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != strings.Replace(old, fp, "", 1) {
		t.Fatalf("re-encoded record:\n %s\nwant the old bytes without weights_fp:\n %s", enc, strings.Replace(old, fp, "", 1))
	}
}
