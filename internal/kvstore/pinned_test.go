package kvstore

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// pinnedValue is a deterministic n-byte value; seed keeps values distinct.
func pinnedValue(n int, seed byte) []byte {
	v := make([]byte, n)
	for i := range v {
		v[i] = byte(i*7) + seed
	}
	return v
}

// pinnedOps drives a fixed sequence over every record kind (put, delete,
// batch, epoch), values on both sides of the reference threshold, overwrites
// across it in both directions, and a Compact with writes behind it.
func pinnedOps(t *testing.T, s *Store) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.Put("a/small", pinnedValue(10, 1)))
	must(s.Put("a/edge-1023", pinnedValue(1023, 2)))
	must(s.Put("a/edge-1024", pinnedValue(1024, 3)))
	must(s.Put("a/big", pinnedValue(2400, 4)))
	must(s.Apply([]Op{
		{Key: "b/1", Value: pinnedValue(40, 5)},
		{Key: "b/2", Value: pinnedValue(3000, 6)},
		{Key: "a/small", Delete: true},
		{Key: "b/3", Value: pinnedValue(1025, 7)},
	}))
	must(s.BumpEpoch(3))
	must(s.Put("a/big", pinnedValue(5, 8)))   // reference → inline
	must(s.Put("b/1", pinnedValue(2000, 9)))  // inline → reference
	must(s.Delete("b/3"))                     // delete a referenced value
	must(s.Put("b/2", pinnedValue(3000, 10))) // reference → reference
	must(s.Compact())                         // rewrite: epoch + sorted single-op records
	must(s.Put("c/after", pinnedValue(1500, 11)))
	must(s.Apply([]Op{
		{Key: "c/x", Value: pinnedValue(64<<10, 12)},
		{Key: "c/y", Value: nil},
		{Key: "a/edge-1024", Value: pinnedValue(1024, 13)},
	}))
}

// pinnedLogSHA256 is the SHA-256 of the log pinnedOps leaves behind, recorded
// on the commit before value references existed (1b17479). The log is the
// replication stream and the only durable copy of the metadata, so a change
// to the store's in-memory representation must not move one byte of it: old
// lakes open unchanged, and a log written by this build opens under the old
// replay.
const pinnedLogSHA256 = "088d3c720d61bf79bc895a9e6414b10f51e4a0cef542a8667af6212884d515b7"

func TestLogBytesPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pinnedOps(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != pinnedLogSHA256 {
		t.Fatalf("log bytes moved: sha256 %s (%d bytes), want %s", got, len(raw), pinnedLogSHA256)
	}
}
