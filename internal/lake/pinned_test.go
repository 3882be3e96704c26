package lake

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"

	"modellake/internal/lakegen"
	"modellake/internal/model"
	"modellake/internal/registry"
)

// pinnedVecRecords is the SHA-256 of every vec/<id> record, in id order,
// after TestVecRecordsPinned's batch ingest. The vec records are the only
// durable copy of an embedding, so any change to how the embedders compute
// (a reordered sum, a fused multiply-add, a skipped term) that alters a bit
// of a stored vector shows here. Change it only with a deliberate change to
// what the embedders compute, and change the vec namespace (vecNS) with it,
// so records written before re-embed instead of mixing with new ones.
const pinnedVecRecords = "0a0c06dfff3135a069e4ae779a48250cb93f94cab94df6e3e85b57d805a3b3cd"

// TestVecRecordsPinned pins the bytes batch ingest stores for a population
// shaped like the bench harness's preload: ≈160 tiny lakegen models (99
// parameters each) through IngestAll.
func TestVecRecordsPinned(t *testing.T) {
	const perFamily = 5
	spec := lakegen.Spec{
		Seed: 7, NumBases: 32, ChildrenPerBase: perFamily - 1, MaxDepth: 3,
		Dim: 8, Classes: 3, Hidden: 8, TrainN: 32, Noise: 0.4,
		BaseEpochs: 1, FTEpochs: 1, CardDropProb: 0.2, AnonymousNames: true,
		TransformMix: map[string]float64{
			model.TransformFinetune: 0.55,
			model.TransformLoRA:     0.25,
			model.TransformStitch:   0.2,
		},
	}
	var items []IngestItem
	if err := lakegen.Stream(spec, func(m *lakegen.Member) error {
		items = append(items, IngestItem{Model: m.Model, Card: m.Card,
			Opts: registry.RegisterOptions{Name: m.Truth.Name, Version: "1"}})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	l, err := Open(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fillBatch(t, l, items, 0)

	h := sha256.New()
	n := 0
	if err := l.kv.Scan(vecPrefix, func(key string, value []byte) bool {
		h.Write([]byte(strings.TrimPrefix(key, vecPrefix)))
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(value))))
		h.Write(value)
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(items) {
		t.Fatalf("%d vec records for %d models", n, len(items))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedVecRecords {
		t.Fatalf("vec records of %d models hash to %s, pinned %s", n, got, pinnedVecRecords)
	}
}
