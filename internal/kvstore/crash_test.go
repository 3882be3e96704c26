package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"modellake/internal/fault"
)

// The crash-window sweep: run a fixed workload once under a fault.Recorder
// to enumerate every IO operation it performs, then replay it once per
// operation with that operation failing. After each faulted run the store
// is reopened fault-free and must contain exactly the acknowledged
// mutations — a failed append may lose the unacknowledged record, but never
// an acknowledged one, and never the log.
//
// Every sweep runs on two value sizes (sizeAxes): the original few-byte
// values, which the store holds inline, and the same values padded past
// refThreshold, which it holds as references into the log — so each injected
// fault is also taken with references in flight: none may point into a
// rolled-back page, and a Compact that fails at any IO op, before or after
// the rename, must leave every acknowledged value readable in the live store.

// sizeAxes names the two value-size runs of every sweep. The inline run
// keeps the bare "op-NN" subtest names the sweeps have always had.
var sizeAxes = []struct {
	prefix string
	pad    int // bytes appended to every workload value
}{{"", 0}, {"ref-", refThreshold}}

// padded returns v grown by pad bytes.
func padded(v []byte, pad int) []byte {
	return append(append([]byte(nil), v...), bytes.Repeat([]byte{'.'}, pad)...)
}

// outcome tracks what the workload observed: acked mutations (the store
// said yes) and unacked attempts (the store said no — which, like any
// storage system without a real crash+media loss, may still have reached
// the disk). The recovery contract is asymmetric: acked state must survive
// exactly; unacked attempts may or may not have applied; anything else is
// corruption.
type outcome struct {
	acked          map[string][]byte
	unackedPuts    map[string][]byte
	unackedDeletes map[string]bool
}

func newOutcome() *outcome {
	return &outcome{
		acked:          map[string][]byte{},
		unackedPuts:    map[string][]byte{},
		unackedDeletes: map[string]bool{},
	}
}

// checkLive asserts that the still-open store serves every acknowledged value:
// a fault may fail the operation it hit, but must leave no reference dangling.
func (o *outcome) checkLive(t *testing.T, s *Store) {
	t.Helper()
	for k, v := range o.acked {
		if got, err := s.Get(k); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("live store lost acknowledged key %q after a fault: %v", k, err)
		}
	}
}

// crashWorkload drives a store through puts, a delete, a compaction, and a
// post-compaction put, recording acked vs unacked mutations.
func crashWorkload(t *testing.T, s *Store, o *outcome, pad int) {
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("key-%02d", i)
		v := padded(bytes.Repeat([]byte{byte('a' + i)}, 16+i), pad)
		if s.Put(k, v) == nil {
			o.acked[k] = v
		} else {
			o.unackedPuts[k] = v
		}
	}
	if s.Delete("key-01") == nil {
		delete(o.acked, "key-01")
	} else {
		o.unackedDeletes["key-01"] = true
	}
	o.checkLive(t, s)
	s.Compact() // failure leaves live state untouched; success preserves it
	o.checkLive(t, s)
	if k, v := "post-compact", padded([]byte("late write"), pad); s.Put(k, v) == nil {
		o.acked[k] = v
	} else {
		o.unackedPuts[k] = v
	}
	o.checkLive(t, s)
}

// countWorkloadOps runs the workload fault-free under a Recorder and
// returns how many IO operations it performs.
func countWorkloadOps(t *testing.T, pad int) int {
	t.Helper()
	rec := &fault.Recorder{}
	path := filepath.Join(t.TempDir(), "probe.log")
	s, err := Open(path, Options{Sync: true, FS: fault.New(rec)})
	if err != nil {
		t.Fatal(err)
	}
	crashWorkload(t, s, newOutcome(), pad)
	s.Close()
	return len(rec.Ops())
}

// verifyRecovered reopens the store fault-free and checks the recovery
// contract against the observed outcome: every acked key present with its
// acked value (unless an unacked delete targeted it), every other surviving
// key explainable as an unacked put with exactly the attempted bytes, and
// nothing else — zero silent loss, zero corruption.
func verifyRecovered(t *testing.T, path string, o *outcome) {
	t.Helper()
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen after single fault must succeed, got: %v", err)
	}
	defer s.Close()
	for k, v := range o.acked {
		got, err := s.Get(k)
		if err != nil {
			if o.unackedDeletes[k] {
				continue // an unacked delete may still have applied
			}
			t.Fatalf("acknowledged key %q lost: %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("acknowledged key %q corrupted: %q != %q", k, got, v)
		}
	}
	err = s.Scan("", func(k string, got []byte) bool {
		if v, ok := o.acked[k]; ok {
			if !bytes.Equal(got, v) {
				t.Fatalf("key %q corrupted: %q != %q", k, got, v)
			}
			return true
		}
		v, ok := o.unackedPuts[k]
		if !ok {
			t.Fatalf("recovered key %q was never written", k)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("unacked key %q surfaced with corrupt value %q", k, got)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func runFaultSweep(t *testing.T, inject func(i int) *fault.Script) {
	t.Helper()
	for _, ax := range sizeAxes {
		n := countWorkloadOps(t, ax.pad)
		if n < 20 {
			t.Fatalf("workload exercised only %d IO ops; sweep too small", n)
		}
		for i := 1; i <= n; i++ {
			t.Run(fmt.Sprintf("%sop-%02d", ax.prefix, i), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "kv.log")
				s, err := Open(path, Options{Sync: true, FS: fault.New(inject(i))})
				if err != nil {
					// The fault hit Open itself: nothing was acknowledged, and
					// a fresh open must find an empty-but-healthy store.
					verifyRecovered(t, path, newOutcome())
					return
				}
				o := newOutcome()
				crashWorkload(t, s, o, ax.pad)
				s.Close() // may fail under the injector; recovery is what matters
				verifyRecovered(t, path, o)
			})
		}
	}
}

func TestCrashSweepCleanFaults(t *testing.T) {
	runFaultSweep(t, func(i int) *fault.Script {
		return &fault.Script{FailAt: i}
	})
}

func TestCrashSweepTornWrites(t *testing.T) {
	runFaultSweep(t, func(i int) *fault.Script {
		return &fault.Script{FailAt: i, Torn: 5}
	})
}

// TestCrashSweepStickyDisk models a disk that breaks and stays broken: the
// store must fail every subsequent mutation loudly (possibly via ErrFailed
// poisoning) and still reopen with every previously acknowledged write.
func TestCrashSweepStickyDisk(t *testing.T) {
	runFaultSweep(t, func(i int) *fault.Script {
		return &fault.Script{FailAt: i, Sticky: true, Torn: 3}
	})
}

// TestFailedAppendDoesNotCorruptLaterWrites pins the recovery rollbackTail
// provides: a torn append followed by more (successful) appends must not
// leave garbage mid-log, which replay would surface as ErrCorrupt.
func TestFailedAppendDoesNotCorruptLaterWrites(t *testing.T) {
	inj := &fault.Script{FailAt: 2, Torn: 7, Match: fault.MatchOps(fault.OpWrite)}
	path := filepath.Join(t.TempDir(), "kv.log")
	s, err := Open(path, Options{FS: fault.New(inj)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", []byte("second")); err == nil {
		t.Fatal("injected write fault did not surface")
	}
	if err := s.Put("c", []byte("third")); err != nil {
		t.Fatalf("append after rolled-back fault failed: %v", err)
	}
	s.Close()
	o := newOutcome()
	o.acked["a"] = []byte("first")
	o.acked["c"] = []byte("third")
	o.unackedPuts["b"] = []byte("second")
	verifyRecovered(t, path, o)
}

// TestSyncFailureNotAcknowledged pins the fsync-gate rule: a record whose
// fsync failed must not be acknowledged, and must not surface after reopen
// as if it had been.
func TestSyncFailureNotAcknowledged(t *testing.T) {
	inj := &fault.Script{FailAt: 2, Match: fault.MatchOps(fault.OpSync)}
	path := filepath.Join(t.TempDir(), "kv.log")
	s, err := Open(path, Options{Sync: true, FS: fault.New(inj)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("durable", []byte("yes")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("phantom", []byte("no")); err == nil {
		t.Fatal("fsync failure acknowledged a write")
	}
	if _, err := s.Get("phantom"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unacknowledged write visible in memory: %v", err)
	}
	s.Close()
	o := newOutcome()
	o.acked["durable"] = []byte("yes")
	o.unackedPuts["phantom"] = []byte("no")
	verifyRecovered(t, path, o)
}

// TestCompactRenameFailureKeepsServing: a failed log swap must leave the
// store on its original, complete log — readable and writable.
func TestCompactRenameFailureKeepsServing(t *testing.T) {
	inj := &fault.Script{FailAt: 1, Match: fault.MatchOps(fault.OpRename)}
	path := filepath.Join(t.TempDir(), "kv.log")
	s, err := Open(path, Options{Sync: true, FS: fault.New(inj)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err == nil {
		t.Fatal("injected rename fault did not surface")
	}
	if got, err := s.Get("k"); err != nil || !bytes.Equal(got, []byte("v")) {
		t.Fatalf("store lost data after failed compact: %v %q", err, got)
	}
	if err := s.Put("k2", []byte("v2")); err != nil {
		t.Fatalf("store not writable after failed compact: %v", err)
	}
	s.Close()
	o := newOutcome()
	o.acked["k"] = []byte("v")
	o.acked["k2"] = []byte("v2")
	verifyRecovered(t, path, o)
}

// TestCompactFsyncsParentDirectory pins the durability-gap fix: Compact
// must fsync the log's directory after the rename, closing the window where
// a crash resurrects the pre-compaction log.
func TestCompactFsyncsParentDirectory(t *testing.T) {
	rec := &fault.Recorder{}
	path := filepath.Join(t.TempDir(), "kv.log")
	s, err := Open(path, Options{FS: fault.New(rec)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	renameAt, syncDirAt := -1, -1
	for i, op := range rec.Ops() {
		switch op.Op {
		case fault.OpRename:
			renameAt = i
		case fault.OpSyncDir:
			syncDirAt = i
		}
	}
	if renameAt == -1 {
		t.Fatal("compact performed no rename")
	}
	if syncDirAt < renameAt {
		t.Fatalf("no directory fsync after rename (rename at %d, syncdir at %d)", renameAt, syncDirAt)
	}
}

// --- Batch-workload sweeps -------------------------------------------------

// batchOutcome tracks Apply batches by acknowledgement. The batch contract is
// stricter than per-key recovery: an acked batch survives whole; an unacked
// batch surfaces either whole or not at all — never a partial application.
type batchOutcome struct {
	acked   [][]Op
	unacked [][]Op
}

// crashWorkloadBatch drives a store through atomic batches (including
// deletes), a compaction, and a post-compaction batch.
func crashWorkloadBatch(t *testing.T, s *Store, o *batchOutcome, pad int) {
	record := func(ops []Op) {
		if s.Apply(ops) == nil {
			o.acked = append(o.acked, ops)
		} else {
			o.unacked = append(o.unacked, ops)
		}
		o.checkLive(t, s)
	}
	for i := 0; i < 4; i++ {
		record([]Op{
			{Key: fmt.Sprintf("b%d/x", i), Value: padded(bytes.Repeat([]byte{byte('a' + i)}, 12), pad)},
			{Key: fmt.Sprintf("b%d/y", i), Value: padded(bytes.Repeat([]byte{byte('A' + i)}, 12), pad)},
		})
	}
	// A batch that deletes keys written by an earlier batch.
	record([]Op{
		{Key: "b0/x", Delete: true},
		{Key: "b0/z", Value: padded([]byte("replacement"), pad)},
	})
	s.Compact()
	o.checkLive(t, s)
	record([]Op{
		{Key: "post/x", Value: padded([]byte("late-1"), pad)},
		{Key: "post/y", Value: padded([]byte("late-2"), pad)},
	})
}

// checkLive asserts that the still-open store serves the final effect of the
// acknowledged batches exactly: in the live store (unlike after a reopen) an
// unacknowledged batch is never applied, so nothing is ambiguous.
func (o *batchOutcome) checkLive(t *testing.T, s *Store) {
	t.Helper()
	want := map[string][]byte{}
	for _, ops := range o.acked {
		for _, op := range ops {
			if op.Delete {
				delete(want, op.Key)
			} else {
				want[op.Key] = op.Value
			}
		}
	}
	for k, v := range want {
		if got, err := s.Get(k); err != nil || !bytes.Equal(got, v) {
			t.Fatalf("live store lost acknowledged key %q after a fault: %v", k, err)
		}
	}
}

// verifyBatchAtomicity reopens fault-free and checks that no batch applied
// partially: acked batches are fully present (their final effect, honoring
// later acked overwrites/deletes), and every unacked batch is either fully
// absent or fully present.
func verifyBatchAtomicity(t *testing.T, path string, o *batchOutcome) {
	t.Helper()
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("reopen after single fault must succeed, got: %v", err)
	}
	defer s.Close()

	// Expected final state from acked batches, applied in order.
	want := map[string][]byte{}
	for _, ops := range o.acked {
		for _, op := range ops {
			if op.Delete {
				delete(want, op.Key)
			} else {
				want[op.Key] = op.Value
			}
		}
	}
	// Keys an unacked batch may legitimately have touched.
	maybe := map[string]bool{}
	for _, ops := range o.unacked {
		for _, op := range ops {
			maybe[op.Key] = true
		}
	}
	for k, v := range want {
		got, err := s.Get(k)
		if err != nil {
			if maybe[k] {
				continue // an unacked later batch may have deleted it
			}
			t.Fatalf("acked batch key %q lost: %v", k, err)
		}
		if !bytes.Equal(got, v) && !maybe[k] {
			t.Fatalf("acked batch key %q corrupted: %q != %q", k, got, v)
		}
	}
	// Unacked batches must be all-or-nothing (modulo keys later rewritten by
	// acked batches, which make presence ambiguous — skip those).
	for _, ops := range o.unacked {
		present, absent := 0, 0
		for _, op := range ops {
			if op.Delete {
				continue // absence of a deleted key is ambiguous
			}
			if _, overwritten := want[op.Key]; overwritten {
				continue
			}
			if got, err := s.Get(op.Key); err == nil && bytes.Equal(got, op.Value) {
				present++
			} else {
				absent++
			}
		}
		if present > 0 && absent > 0 {
			t.Fatalf("unacked batch applied partially: %d present, %d absent of %v", present, absent, ops)
		}
	}
}

func runBatchFaultSweep(t *testing.T, inject func(i int) *fault.Script) {
	t.Helper()
	for _, ax := range sizeAxes {
		rec := &fault.Recorder{}
		probe := filepath.Join(t.TempDir(), "probe.log")
		s, err := Open(probe, Options{Sync: true, FS: fault.New(rec)})
		if err != nil {
			t.Fatal(err)
		}
		crashWorkloadBatch(t, s, &batchOutcome{}, ax.pad)
		s.Close()
		n := len(rec.Ops())
		if n < 10 {
			t.Fatalf("batch workload exercised only %d IO ops; sweep too small", n)
		}
		for i := 1; i <= n; i++ {
			t.Run(fmt.Sprintf("%sop-%02d", ax.prefix, i), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "kv.log")
				s, err := Open(path, Options{Sync: true, FS: fault.New(inject(i))})
				if err != nil {
					verifyBatchAtomicity(t, path, &batchOutcome{})
					return
				}
				o := &batchOutcome{}
				crashWorkloadBatch(t, s, o, ax.pad)
				s.Close()
				verifyBatchAtomicity(t, path, o)
			})
		}
	}
}

// TestCrashSweepBatchCleanFaults sweeps clean IO failures across an
// Apply-heavy workload: every batch must recover all-or-nothing.
func TestCrashSweepBatchCleanFaults(t *testing.T) {
	runBatchFaultSweep(t, func(i int) *fault.Script {
		return &fault.Script{FailAt: i}
	})
}

// TestCrashSweepBatchTornWrites tears each write mid-page: a torn batch
// record must drop the whole batch at replay, never a suffix of its ops.
func TestCrashSweepBatchTornWrites(t *testing.T) {
	runBatchFaultSweep(t, func(i int) *fault.Script {
		return &fault.Script{FailAt: i, Torn: 11}
	})
}

// TestCrashSweepBatchFsyncFaults fails each fsync in turn — the
// fsync-at-Nth-op window: a batch whose fsync failed was never acknowledged
// and must not partially surface after reopen.
func TestCrashSweepBatchFsyncFaults(t *testing.T) {
	runBatchFaultSweep(t, func(i int) *fault.Script {
		return &fault.Script{FailAt: i, Match: fault.MatchOps(fault.OpSync)}
	})
}

// TestCrashSweepMidCompact targets the compaction machinery specifically:
// every write, rename, sync, and directory-fsync reachable from Compact
// fails in turn, and the store must keep serving the pre-compaction state.
func TestCrashSweepMidCompact(t *testing.T) {
	match := func(op fault.Op, path string) bool {
		switch op {
		case fault.OpWrite, fault.OpRename, fault.OpSync, fault.OpSyncDir, fault.OpClose, fault.OpOpen:
			return strings.HasSuffix(path, compactSuffix) ||
				op == fault.OpRename || op == fault.OpSyncDir
		}
		return false
	}
	for _, ax := range sizeAxes {
		// Count matching ops in a fault-free run.
		rec := &fault.Recorder{}
		probe := filepath.Join(t.TempDir(), "probe.log")
		s, err := Open(probe, Options{Sync: true, FS: fault.New(rec)})
		if err != nil {
			t.Fatal(err)
		}
		crashWorkloadBatch(t, s, &batchOutcome{}, ax.pad)
		s.Close()
		n := 0
		for _, op := range rec.Ops() {
			if match(op.Op, op.Path) {
				n++
			}
		}
		if n < 3 {
			t.Fatalf("compact path exercised only %d matching ops", n)
		}
		for i := 1; i <= n; i++ {
			t.Run(fmt.Sprintf("%sop-%02d", ax.prefix, i), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "kv.log")
				inj := &fault.Script{FailAt: i, Match: match}
				s, err := Open(path, Options{Sync: true, FS: fault.New(inj)})
				if err != nil {
					verifyBatchAtomicity(t, path, &batchOutcome{})
					return
				}
				o := &batchOutcome{}
				crashWorkloadBatch(t, s, o, ax.pad)
				s.Close()
				verifyBatchAtomicity(t, path, o)
			})
		}
	}
}
