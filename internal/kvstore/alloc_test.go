package kvstore

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"modellake/internal/raceflag"
)

// Allocation regressions on the group-commit hot path. The budgets are
// deliberately loose (the point is catching a pooled waiter or reused page
// buffer silently becoming per-call garbage, not squeezing the last alloc),
// and the tests skip under the race detector, whose instrumentation adds its
// own allocations.

func TestPutAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	path := filepath.Join(t.TempDir(), "kv.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte("v"), 128)
	key := "hot-key"
	s.Put(key, val) // warm the waiter pool and page buffer
	avg := testing.AllocsPerRun(200, func() {
		if err := s.Put(key, val); err != nil {
			t.Fatal(err)
		}
	})
	// Expected steady state: one value copy into the map, plus pool/queue
	// noise. Anything near ten means the waiter pool or page-buffer reuse
	// regressed.
	if avg > 6 {
		t.Fatalf("Put allocates %.1f times per call; hot-path reuse regressed", avg)
	}
}

func TestApplyAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	path := filepath.Join(t.TempDir(), "kv.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte("v"), 64)
	ops := make([]Op, 16)
	for i := range ops {
		ops[i] = Op{Key: fmt.Sprintf("k%02d", i), Value: val}
	}
	s.Apply(ops) // warm
	avg := testing.AllocsPerRun(200, func() {
		if err := s.Apply(ops); err != nil {
			t.Fatal(err)
		}
	})
	// One copy per op into the map plus constant overhead; a per-op budget
	// blowup (e.g. re-encoding into a fresh page every call) trips this.
	if avg > float64(len(ops))+8 {
		t.Fatalf("Apply(16 ops) allocates %.1f times per call", avg)
	}
}

func TestGetAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	s := OpenMemory()
	defer s.Close()
	s.Put("k", bytes.Repeat([]byte("v"), 128))
	avg := testing.AllocsPerRun(200, func() {
		if _, err := s.Get("k"); err != nil {
			t.Fatal(err)
		}
	})
	// Get copies the value out: one allocation.
	if avg > 2 {
		t.Fatalf("Get allocates %.1f times per call", avg)
	}
}

// TestGetReferencedAllocs is TestGetAllocs for a value the store keeps by
// reference: the pread buffer is the caller's copy, so reading from the log
// costs the same one allocation as copying out of the map.
func TestGetReferencedAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	s, err := Open(filepath.Join(t.TempDir(), "kv.log"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Put("k", bytes.Repeat([]byte("v"), 2*refThreshold))
	if _, referenced := s.ApproxMemBytes(); referenced == 0 {
		t.Fatal("value was not stored by reference")
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := s.Get("k"); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 2 {
		t.Fatalf("Get of a referenced value allocates %.1f times per call", avg)
	}
}

// TestCountAllocs: Count walks the key set in place — it backs Registry.Count
// and so every /readyz probe.
func TestCountAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	s := OpenMemory()
	defer s.Close()
	for i := 0; i < 100; i++ {
		s.Put(fmt.Sprintf("model/%03d", i), []byte("r"))
		s.Put(fmt.Sprintf("card/%03d", i), []byte("c"))
	}
	var n int
	if avg := testing.AllocsPerRun(100, func() { n = s.Count("model/") }); avg != 0 {
		t.Fatalf("Count allocates %.1f times per call", avg)
	}
	if n != 100 {
		t.Fatalf("Count = %d, want 100", n)
	}
}
