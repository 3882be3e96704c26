package lake

// Persisted index vectors. Alongside every open-weights registration the
// lake stores the model's content-search embeddings under vec/<id>, in the
// same atomic kvstore batch as the registry record itself. Rehydration then
// rebuilds the ANN indexes straight from the (already replayed, in-memory)
// metadata log: no record re-decode, no weight decode, no re-embedding —
// only the weights-blob existence check remains per model. These records
// are the only durable copy of an embedding; everything else that holds one
// (the ANN indexes, on-disk vector segments) is derived from them. The record
// carries the embedding namespace (every config knob that changes embedder
// output) plus per-space embedder names, so a lake reopened with different
// embedding parameters ignores the stale vectors and falls back to
// decode-and-embed for that model.

import (
	"encoding/binary"
	"fmt"
	"math"

	"modellake/internal/tensor"
)

const (
	vecPrefix     = "vec/"
	vecRecVersion = 1
)

func vecKey(id string) string { return vecPrefix + id }

// spaceVec is one embedding-space entry of a vec record: the embedder name
// ("behavior", "weight") and the vector it produced for the model.
type spaceVec struct {
	Space string
	Vec   tensor.Vector
}

// encodeVecRecord serializes the vectors with their namespace:
//
//	[u8 version][u16 nsLen][ns][u8 spaceCount]
//	per space: [u8 nameLen][name][u32 dim][dim × f64 little-endian]
//
// Binary rather than JSON because vec records are the bulk of every
// registration batch (a few KB of float64s per model) and are decoded for
// every model on every reopen.
func encodeVecRecord(ns string, vecs []spaceVec) []byte {
	size := 1 + 2 + len(ns) + 1
	for _, sv := range vecs {
		size += 1 + len(sv.Space) + 4 + 8*len(sv.Vec)
	}
	b := make([]byte, 0, size)
	b = append(b, vecRecVersion)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(ns)))
	b = append(b, ns...)
	b = append(b, byte(len(vecs)))
	for _, sv := range vecs {
		b = append(b, byte(len(sv.Space)))
		b = append(b, sv.Space...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(sv.Vec)))
		for _, f := range sv.Vec {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	return b
}

// decodeVecRecord parses an encodeVecRecord payload. Unknown versions and
// truncated records are errors — callers treat any decode failure as "no
// cached vectors" and fall back to re-embedding, so a corrupt or
// future-format record degrades to the slow path instead of failing Open.
func decodeVecRecord(b []byte) (ns string, vecs []spaceVec, err error) {
	fail := func() (string, []spaceVec, error) {
		return "", nil, fmt.Errorf("lake: malformed vec record")
	}
	if len(b) < 4 || b[0] != vecRecVersion {
		return fail()
	}
	nsLen := int(binary.LittleEndian.Uint16(b[1:3]))
	p := 3
	if len(b) < p+nsLen+1 {
		return fail()
	}
	ns = string(b[p : p+nsLen])
	p += nsLen
	count := int(b[p])
	p++
	// Every length field is checked against the bytes behind it before
	// anything is sized by it; a space entry is at least nameLen + dim.
	if count*(1+4) > len(b)-p {
		return fail()
	}
	vecs = make([]spaceVec, 0, count)
	for i := 0; i < count; i++ {
		if len(b) < p+1 {
			return fail()
		}
		nameLen := int(b[p])
		p++
		if len(b) < p+nameLen+4 {
			return fail()
		}
		name := string(b[p : p+nameLen])
		p += nameLen
		dim := int(binary.LittleEndian.Uint32(b[p : p+4]))
		p += 4
		if dim < 0 || len(b) < p+8*dim {
			return fail()
		}
		v := make(tensor.Vector, dim)
		for j := 0; j < dim; j++ {
			v[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[p : p+8]))
			p += 8
		}
		vecs = append(vecs, spaceVec{Space: name, Vec: v})
	}
	if p != len(b) {
		return fail()
	}
	return ns, vecs, nil
}
