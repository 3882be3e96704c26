package lake

import (
	"bytes"
	"runtime"
	"testing"

	"modellake/internal/tensor"
)

// decodeAllocBytes reports the heap bytes one decodeVecRecord call allocates.
func decodeAllocBytes(b []byte) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _ = decodeVecRecord(b)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeVecRecord is the native fuzz harness for the vec-record decoder,
// the one parser between the metadata log and every content index. For
// arbitrary bytes it must never panic; it either errors or returns a value
// that re-encodes to exactly the input (so nothing is dropped, invented or
// reinterpreted); and what it allocates is bounded by the bytes it was given,
// never by a length field those bytes do not back. The seed corpus is the
// malformed set of TestVecRecordMalformedRejected. Run with
//
//	go test -run='^$' -fuzz=FuzzDecodeVecRecord -fuzztime=30s ./internal/lake
func FuzzDecodeVecRecord(f *testing.F) {
	good := encodeVecRecord("in8_mc8_p32_s1", []spaceVec{
		{Space: "behavior", Vec: tensor.Vector{1, 2, 3}},
		{Space: "weight", Vec: tensor.Vector{4, 5}},
	})
	for n := 0; n <= len(good); n++ {
		f.Add(good[:n])
	}
	f.Add(append(append([]byte{}, good...), 0xff))
	future := append([]byte{}, good...)
	future[0] = vecRecVersion + 1
	f.Add(future)
	f.Add(encodeVecRecord("only-ns", nil))
	// Headers that promise far more than the record holds: 255 spaces, and
	// one space of 2^32-1 dimensions.
	f.Add([]byte{vecRecVersion, 0, 0, 0xff})
	f.Add([]byte{vecRecVersion, 0, 0, 1, 0, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, b []byte) {
		ns, vecs, err := decodeVecRecord(b)
		if err == nil {
			if again := encodeVecRecord(ns, vecs); !bytes.Equal(again, b) {
				t.Fatalf("accepted record does not re-encode to itself:\n in  %x\n out %x", b, again)
			}
		}
		// 40 bytes of slice header per 5-byte space entry is the steepest
		// legitimate ratio; the constant covers the error value. Another
		// goroutine's allocation can land inside one measurement, so only an
		// excess that repeats counts.
		limit := uint64(16*len(b) + 512)
		got := decodeAllocBytes(b)
		for try := 0; got > limit && try < 3; try++ {
			got = min(got, decodeAllocBytes(b))
		}
		if got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d): %x", len(b), got, limit, b)
		}
	})
}
