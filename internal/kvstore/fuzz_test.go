package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// record frames payload as one log record.
func record(payload []byte) []byte {
	rec := make([]byte, headerSize, headerSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
	return append(rec, payload...)
}

// fuzzSeedLog is a small well-formed log with every record kind and values on
// both sides of refThreshold.
func fuzzSeedLog() []byte {
	var page []byte
	big := bytes.Repeat([]byte("B"), refThreshold+5)
	for _, ops := range [][]Op{
		{{Key: "a", Value: []byte("small")}},
		{{Key: "b", Value: big}},
		{{Key: "c", Value: big[:refThreshold]}, {Key: "a", Delete: true}, {Key: "d", Value: nil}},
		{{Key: epochKey, Value: []byte{3, 0, 0, 0, 0, 0, 0, 0}}},
		{{Key: "b", Delete: true}},
	} {
		page, _ = appendRecordPage(page, nil, ops)
	}
	return page
}

// lyingLogs are logs whose length fields claim far more than the file holds.
func lyingLogs() map[string][]byte {
	hdr := func(n uint32) []byte { return binary.LittleEndian.AppendUint32(nil, n) }
	hugeBatch := append([]byte{opBatch}, hdr(maxRecordSize/9)...) // count field: 7.4M ops, none present
	hugeKey := append([]byte{opPut}, hdr(1<<31)...)
	return map[string][]byte{
		"record length":     append(append(hdr(maxRecordSize), hdr(0)...), "tail"...),
		"batch count":       append(record(hugeBatch), fuzzSeedLog()...),
		"key length":        append(record(hugeKey), fuzzSeedLog()...),
		"record length mid": append(fuzzSeedLog(), append(hdr(maxRecordSize-1), hdr(7)...)...),
	}
}

// openBytes writes data as the log file at path and opens it, reporting how
// many bytes the Open allocated.
func openBytes(t testing.TB, path string, data []byte) (s *Store, allocated uint64, err error) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err = Open(path, Options{})
	runtime.ReadMemStats(&after)
	return s, after.TotalAlloc - before.TotalAlloc, err
}

// replayAllocBudget bounds what opening an n-byte log may allocate: the
// replay read-ahead buffer plus a generous multiple of the bytes actually
// present (keys, inline copies, op slices, map growth).
func replayAllocBudget(n int) uint64 { return 2*replayBufSize + 64*uint64(n) }

// TestReplayDoesNotTrustLengthFields: a length field is checked against the
// bytes behind it before anything is sized by it.
func TestReplayDoesNotTrustLengthFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.log")
	for name, data := range lyingLogs() {
		s, allocated, err := openBytes(t, path, data)
		if err == nil {
			s.Close()
		} else if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: untyped error %v", name, err)
		}
		if allocated > replayAllocBudget(len(data)) {
			t.Errorf("%s: opening %d bytes allocated %d", name, len(data), allocated)
		}
	}
}

// FuzzReplay feeds arbitrary bytes to Open as a log. It must return a store or
// an error wrapping ErrCorrupt — never panic, never allocate what a length
// field merely claims — and whatever opens must be fully readable (every
// reference it built points at bytes that reproduce the value's CRC) and
// reopen to the same state.
func FuzzReplay(f *testing.F) {
	seed := fuzzSeedLog()
	f.Add(seed)
	f.Add(seed[:len(seed)-3])                         // torn tail
	f.Add(append(append([]byte(nil), seed...), 9, 9)) // torn header
	flipped := append([]byte(nil), seed...)
	flipped[40] ^= 1 // mid-log corruption
	f.Add(flipped)
	for _, data := range lyingLogs() {
		f.Add(data)
	}
	path := filepath.Join(f.TempDir(), "kv.log") // one file, rewritten per input
	f.Fuzz(func(t *testing.T, data []byte) {
		s, allocated, err := openBytes(t, path, data)
		if allocated > replayAllocBudget(len(data)) {
			t.Fatalf("opening %d bytes allocated %d", len(data), allocated)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		state := map[string][]byte{}
		for _, k := range s.Keys("") {
			v, err := s.Get(k)
			if err != nil {
				t.Fatalf("Get(%q) on a store that opened: %v", k, err)
			}
			state[k] = v
		}
		err = s.Scan("", func(k string, v []byte) bool {
			if !bytes.Equal(v, state[k]) {
				t.Fatalf("Scan and Get disagree on %q", k)
			}
			return true
		})
		if err != nil {
			t.Fatalf("Scan on a store that opened: %v", err)
		}
		epoch := s.Epoch()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		// Open truncated any torn tail, so a second Open replays exactly the
		// records the first one kept.
		s, err = Open(path, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer s.Close()
		if s.Len() != len(state) || s.Epoch() != epoch {
			t.Fatalf("reopen: %d keys epoch %d, first open %d keys epoch %d", s.Len(), s.Epoch(), len(state), epoch)
		}
		for k, want := range state {
			if got, err := s.Get(k); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("reopen: Get(%q) differs: %v", k, err)
			}
		}
	})
}
