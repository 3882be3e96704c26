package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"modellake/internal/fault"
)

// --- Apply semantics -------------------------------------------------------

func TestApplyAtomicBatchVisibleAndDurable(t *testing.T) {
	s, path := openTemp(t)
	s.Put("pre", []byte("old"))
	ops := []Op{
		{Key: "a", Value: []byte("1")},
		{Key: "b", Value: []byte("2")},
		{Key: "pre", Delete: true},
		{Key: "c", Value: []byte("3")},
	}
	if err := s.Apply(ops); err != nil {
		t.Fatal(err)
	}
	check := func(st *Store) {
		t.Helper()
		for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
			got, err := st.Get(k)
			if err != nil || string(got) != want {
				t.Fatalf("Get %q = %q, %v", k, got, err)
			}
		}
		if _, err := st.Get("pre"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("batched delete not applied: %v", err)
		}
	}
	check(s)
	s.Close()
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2)
}

func TestApplyEmptyBatchIsNoOp(t *testing.T) {
	s, path := openTemp(t)
	if err := s.Apply(nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("empty Apply grew the log to %d bytes", fi.Size())
	}
}

func TestApplySingleOpBatch(t *testing.T) {
	// A one-op batch uses the legacy record format; it must still round-trip.
	s, path := openTemp(t)
	if err := s.Apply([]Op{{Key: "solo", Value: []byte("v")}}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := s2.Get("solo"); err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestApplyBatchTooLarge(t *testing.T) {
	s, _ := openTemp(t)
	defer s.Close()
	big := make([]byte, maxRecordSize/2)
	ops := []Op{
		{Key: "a", Value: big},
		{Key: "b", Value: big},
		{Key: "c", Value: big},
	}
	if err := s.Apply(ops); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized batch: got %v, want ErrBatchTooLarge", err)
	}
	// The store must remain healthy after the rejection.
	if err := s.Put("after", []byte("x")); err != nil {
		t.Fatal(err)
	}
}

func TestApplyOnClosedStore(t *testing.T) {
	s := OpenMemory()
	s.Close()
	if err := s.Apply([]Op{{Key: "k", Value: []byte("v")}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply on closed store: %v", err)
	}
}

// TestTornBatchRecordDropsWholeBatch pins the all-or-nothing replay contract:
// a batch record torn at the log tail must lose every op in the batch, never
// a prefix of it.
func TestTornBatchRecordDropsWholeBatch(t *testing.T) {
	for _, chop := range []int{1, 5, 9, 20} {
		t.Run(fmt.Sprintf("chop-%d", chop), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "kv.log")
			s, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put("keep", []byte("safe")); err != nil {
				t.Fatal(err)
			}
			if err := s.Apply([]Op{
				{Key: "t1", Value: []byte("one")},
				{Key: "t2", Value: []byte("two")},
				{Key: "t3", Value: []byte("three")},
			}); err != nil {
				t.Fatal(err)
			}
			s.Close()
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)-chop], 0o644); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(path, Options{})
			if err != nil {
				t.Fatalf("torn batch tail should be tolerated: %v", err)
			}
			defer s2.Close()
			if got, err := s2.Get("keep"); err != nil || string(got) != "safe" {
				t.Fatalf("record before torn batch lost: %q, %v", got, err)
			}
			for _, k := range []string{"t1", "t2", "t3"} {
				if _, err := s2.Get(k); !errors.Is(err, ErrNotFound) {
					t.Fatalf("torn batch partially applied: %q survived (%v)", k, err)
				}
			}
		})
	}
}

// TestCorruptBatchMidLogDetected: unlike a torn tail, a corrupt batch record
// with valid records after it is real corruption and must fail Open loudly.
func TestCorruptBatchMidLogDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply([]Op{
		{Key: "a", Value: bytes.Repeat([]byte("x"), 50)},
		{Key: "b", Value: bytes.Repeat([]byte("y"), 50)},
	}); err != nil {
		t.Fatal(err)
	}
	s.Put("later", []byte("v"))
	s.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[30] ^= 0xff // inside the batch payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("expected ErrCorrupt, got %v", err)
	}
}

// --- Scan re-entrancy ------------------------------------------------------

// TestScanCallbackMayCallStore pins the regression fixed alongside group
// commit: Scan snapshots under the lock and runs the callback lock-free, so
// a callback may call back into the store without self-deadlocking.
func TestScanCallbackMayCallStore(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	s.Put("a/1", []byte("1"))
	s.Put("a/2", []byte("2"))
	visited := 0
	err := s.Scan("a/", func(k string, v []byte) bool {
		visited++
		if _, err := s.Get(k); err != nil {
			t.Errorf("Get inside Scan: %v", err)
		}
		if err := s.Put("b/"+k, v); err != nil {
			t.Errorf("Put inside Scan: %v", err)
		}
		s.Scan("a/", func(string, []byte) bool { return true })
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 2 {
		t.Fatalf("visited %d, want 2", visited)
	}
	if got := len(s.Keys("b/")); got != 2 {
		t.Fatalf("callback writes lost: %d", got)
	}
}

// --- Close durability ------------------------------------------------------

// TestCloseFsyncsWithoutSyncOption pins the Close contract: even a store
// opened with Sync: false must fsync its log before closing, so a clean
// shutdown never loses acknowledged writes to the page cache.
func TestCloseFsyncsWithoutSyncOption(t *testing.T) {
	rec := &fault.Recorder{}
	path := filepath.Join(t.TempDir(), "kv.log")
	s, err := Open(path, Options{Sync: false, FS: fault.New(rec)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	ops := rec.Ops()
	syncAt, closeAt := -1, -1
	for i, op := range ops {
		if !strings.HasSuffix(op.Path, "kv.log") {
			continue
		}
		switch op.Op {
		case fault.OpSync:
			syncAt = i
		case fault.OpClose:
			closeAt = i
		}
	}
	if closeAt == -1 {
		t.Fatal("Close never closed the log")
	}
	if syncAt == -1 || syncAt > closeAt {
		t.Fatalf("Close did not fsync before closing (sync at %d, close at %d)", syncAt, closeAt)
	}
}

// TestCloseReplayEquivalence: a store written with Sync: false and cleanly
// closed must replay to exactly the state it held in memory.
func TestCloseReplayEquivalence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.log")
	s, err := Open(path, Options{Sync: false})
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[string]string{}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%02d", i%37)
		v := fmt.Sprintf("v%d", i)
		switch i % 5 {
		case 4:
			s.Delete(k)
			delete(oracle, k)
		case 3:
			s.Apply([]Op{
				{Key: k, Value: []byte(v)},
				{Key: k + "-twin", Value: []byte(v)},
			})
			oracle[k] = v
			oracle[k+"-twin"] = v
		default:
			s.Put(k, []byte(v))
			oracle[k] = v
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(oracle) {
		t.Fatalf("replayed %d keys, want %d", s2.Len(), len(oracle))
	}
	for k, want := range oracle {
		got, err := s2.Get(k)
		if err != nil || string(got) != want {
			t.Fatalf("Get %q = %q, %v (want %q)", k, got, err, want)
		}
	}
}

// --- Crash leftovers -------------------------------------------------------

// TestLeftoverCompactFileRemovedOnOpen: a crash mid-compact leaves the
// rewrite target behind; Open must discard it and serve from the real log.
func TestLeftoverCompactFileRemovedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("k", []byte("real"))
	s.Close()
	// Simulate a crash that left a half-written compaction target.
	if err := os.WriteFile(path+compactSuffix, []byte("garbage snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := s2.Get("k"); err != nil || string(got) != "real" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := os.Stat(path + compactSuffix); !os.IsNotExist(err) {
		t.Fatal("leftover compact file not removed on Open")
	}
}

// --- Concurrent group commit under faults ----------------------------------

// TestConcurrentGroupCommitCrashSweep drives concurrent writers (so commits
// really coalesce into multi-record pages) against a sticky fault at every
// IO index in turn, then replays the log and checks the asymmetric recovery
// contract with thread-safe acked tracking: every acknowledged write is
// present with its exact value, and every surviving key is explainable as an
// acked or attempted write.
func TestConcurrentGroupCommitCrashSweep(t *testing.T) {
	const writers = 4
	const perWriter = 8
	workload := func(s *Store, pad int) (acked, attempted *sync.Map) {
		acked, attempted = &sync.Map{}, &sync.Map{}
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					k := fmt.Sprintf("w%d/k%d", w, i)
					v := padded([]byte(fmt.Sprintf("val-%d-%d", w, i)), pad)
					attempted.Store(k, v)
					if i%4 == 3 {
						ops := []Op{
							{Key: k, Value: v},
							{Key: k + "/pair", Value: v},
						}
						attempted.Store(k+"/pair", v)
						if s.Apply(ops) == nil {
							acked.Store(k, v)
							acked.Store(k+"/pair", v)
						}
					} else if s.Put(k, v) == nil {
						acked.Store(k, v)
					}
				}
			}(w)
		}
		wg.Wait()
		return acked, attempted
	}

	// How many IO ops a run performs depends on how the commits coalesce, so
	// sweep up to the most it can be — no coalescing: a write and an fsync per
	// commit, plus Open's remove + open and Close's fsync + close — and let an
	// index past the end of a luckier run inject nothing. A spread of indices
	// rather than all of them: exact enumeration buys nothing here.
	const n = 2 + writers*perWriter*2 + 2
	for _, ax := range sizeAxes {
		for i := 1; i <= n; i += 3 {
			t.Run(fmt.Sprintf("%sop-%02d", ax.prefix, i), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "kv.log")
				inj := &fault.Script{FailAt: i, Sticky: true, Torn: 4}
				s, err := Open(path, Options{Sync: true, FS: fault.New(inj)})
				if err != nil {
					return // fault hit Open; nothing acked
				}
				acked, attempted := workload(s, ax.pad)
				// The disk stays broken, so nothing more commits: the live
				// store must still serve everything it acknowledged.
				acked.Range(func(k, v any) bool {
					if got, err := s.Get(k.(string)); err != nil || !bytes.Equal(got, v.([]byte)) {
						t.Fatalf("live store lost acknowledged key %q: %v", k, err)
					}
					return true
				})
				s.Close()

				s2, err := Open(path, Options{})
				if err != nil {
					t.Fatalf("reopen after faulted run failed: %v", err)
				}
				defer s2.Close()
				acked.Range(func(k, v any) bool {
					got, err := s2.Get(k.(string))
					if err != nil {
						t.Fatalf("acknowledged key %q lost: %v", k, err)
					}
					if !bytes.Equal(got, v.([]byte)) {
						t.Fatalf("acknowledged key %q corrupted", k)
					}
					return true
				})
				s2.Scan("", func(k string, got []byte) bool {
					want, ok := attempted.Load(k)
					if !ok {
						t.Fatalf("recovered key %q was never written", k)
					}
					if !bytes.Equal(got, want.([]byte)) {
						t.Fatalf("key %q surfaced with corrupt value", k)
					}
					return true
				})
			})
		}
	}
}

// TestGroupCommitLeaderWaiterReuse pins the fix for a lost-wakeup hang: the
// commit leader used to recycle its own waiter into the pool while still
// draining later batches, so a new caller could be handed the same waiter
// object, re-enter the queue, alias the leader's pointer-equality check, and
// never be woken. Small MaxBatch forces multi-batch leader loops; with the
// bug present this test hangs within a few rounds.
func TestGroupCommitLeaderWaiterReuse(t *testing.T) {
	for round := 0; round < 25; round++ {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("kv%d.log", round))
		s, err := Open(path, Options{Sync: true, MaxBatch: 4})
		if err != nil {
			t.Fatal(err)
		}
		const writers = 8
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if err := s.Put(fmt.Sprintf("k%d-%d", w, i), []byte("v")); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if got := s.Len(); got != writers*20 {
			t.Fatalf("round %d: %d keys live, want %d", round, got, writers*20)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// --- Write-path benchmarks -------------------------------------------------

// BenchmarkPutSyncSerial is the pre-group-commit baseline shape: one writer,
// one fsync per record.
func BenchmarkPutSyncSerial(b *testing.B) {
	path := filepath.Join(b.TempDir(), "kv.log")
	s, err := Open(path, Options{Sync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte("v"), 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("key%d", i%1000), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPutSyncParallel is where group commit earns its keep: concurrent
// writers pile up behind the in-flight fsync and ride out on one page.
func BenchmarkPutSyncParallel(b *testing.B) {
	path := filepath.Join(b.TempDir(), "kv.log")
	s, err := Open(path, Options{Sync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte("v"), 256)
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if err := s.Put(fmt.Sprintf("key%d", i%1000), val); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkApplyBatch commits 64-op batches: one record, one fsync, 64 keys.
func BenchmarkApplyBatch(b *testing.B) {
	path := filepath.Join(b.TempDir(), "kv.log")
	s, err := Open(path, Options{Sync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := bytes.Repeat([]byte("v"), 256)
	ops := make([]Op, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			ops[j] = Op{Key: fmt.Sprintf("key%d", (i*64+j)%1000), Value: val}
		}
		if err := s.Apply(ops); err != nil {
			b.Fatal(err)
		}
	}
}
