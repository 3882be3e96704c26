package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for value references: the store keeps values of refThreshold bytes
// and over as (offset, length, CRC) into its log. They check the store against
// a plain map through every operation that moves, rewrites, cuts or ships the
// log, and under concurrency through the handle + offset swap of Compact.

// --- model-based -----------------------------------------------------------

// modelSizes are the value lengths the model test draws from: empty, small,
// the three lengths around refThreshold, and one far past it.
var modelSizes = []int{0, 7, 300, refThreshold - 1, refThreshold, refThreshold + 1, 64 << 10}

// modelValue returns a fresh n-byte value.
func modelValue(rng *rand.Rand, n int) []byte {
	v := make([]byte, n)
	rng.Read(v)
	return v
}

func cloneModel(m map[string][]byte) map[string][]byte {
	c := make(map[string][]byte, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// assertMatchesModel checks every read operation of s against the oracle.
func assertMatchesModel(t *testing.T, who string, s *Store, model map[string][]byte, keys []string) {
	t.Helper()
	if s.Len() != len(model) {
		t.Fatalf("%s: Len %d, model %d", who, s.Len(), len(model))
	}
	for _, k := range keys { // the whole key space: present and absent keys
		want, ok := model[k]
		got, err := s.Get(k)
		switch {
		case ok && (err != nil || !bytes.Equal(got, want)):
			t.Fatalf("%s: Get(%q) = %d bytes, %v; model has %d bytes", who, k, len(got), err, len(want))
		case !ok && !errors.Is(err, ErrNotFound):
			t.Fatalf("%s: Get(%q) of an absent key: %v", who, k, err)
		}
		if s.Has(k) != ok {
			t.Fatalf("%s: Has(%q) = %v, model %v", who, k, !ok, ok)
		}
	}
	var resident, referenced int64
	for _, prefix := range []string{"", "a/", "b/", "c/", "zz/"} {
		var want []string
		for k := range model {
			if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
				want = append(want, k)
			}
		}
		sort.Strings(want)
		var got []string
		err := s.Scan(prefix, func(k string, v []byte) bool {
			if !bytes.Equal(v, model[k]) {
				t.Fatalf("%s: Scan(%q) value of %q differs from the model", who, prefix, k)
			}
			got = append(got, k)
			return true
		})
		if err != nil {
			t.Fatalf("%s: Scan(%q): %v", who, prefix, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: Scan(%q) keys %v, model %v", who, prefix, got, want)
		}
		if fmt.Sprint(s.Keys(prefix)) != fmt.Sprint(want) {
			t.Fatalf("%s: Keys(%q) = %v, model %v", who, prefix, s.Keys(prefix), want)
		}
		if n := s.Count(prefix); n != len(want) {
			t.Fatalf("%s: Count(%q) = %d, model %d", who, prefix, n, len(want))
		}
	}
	for k, v := range model {
		if len(v) >= refThreshold {
			resident += int64(len(k)) + 16 + 16 + 48
			referenced += int64(len(v))
		} else {
			resident += int64(len(k)) + 16 + 24 + 48 + int64(len(v))
		}
	}
	if gotRes, gotRef := s.ApproxMemBytes(); gotRes != resident || gotRef != referenced {
		t.Fatalf("%s: ApproxMemBytes = (%d, %d), model (%d, %d): a value sits on the wrong side of the threshold",
			who, gotRes, gotRef, resident, referenced)
	}
}

// TestStoreMatchesModel drives seeded random op sequences against a leader
// store, a follower fed from the leader's log by pages, and a plain map, and
// after every step compares every read operation of both stores with the map.
func TestStoreMatchesModel(t *testing.T) {
	steps := 400
	if testing.Short() {
		steps = 120
	}
	var keys []string
	for _, p := range []string{"a/", "b/", "c/"} {
		for i := 0; i < 4; i++ {
			keys = append(keys, fmt.Sprintf("%s%d", p, i))
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			leaderPath := filepath.Join(dir, "leader.log")
			open := func(path string) *Store {
				t.Helper()
				s, err := Open(path, Options{})
				if err != nil {
					t.Fatalf("open %s: %v", path, err)
				}
				return s
			}
			leader := open(leaderPath)
			defer func() { leader.Close() }()
			followerGen := 0
			followerPath := func() string { return filepath.Join(dir, fmt.Sprintf("follower-%d.log", followerGen)) }
			follower := open(followerPath())
			defer func() { follower.Close() }()
			model := map[string][]byte{}

			randomOps := func() []Op {
				ops := make([]Op, 1+rng.Intn(5))
				for i := range ops {
					k := keys[rng.Intn(len(keys))]
					if rng.Intn(4) == 0 {
						ops[i] = Op{Key: k, Delete: true}
					} else {
						ops[i] = Op{Key: k, Value: modelValue(rng, modelSizes[rng.Intn(len(modelSizes))])}
					}
				}
				return ops
			}
			// mutate applies one random committed mutation to leader and m.
			mutate := func(m map[string][]byte) {
				t.Helper()
				var err error
				switch ops := randomOps(); {
				case len(ops) > 1:
					err = leader.Apply(ops)
					for _, op := range ops {
						if op.Delete {
							delete(m, op.Key)
						} else {
							m[op.Key] = op.Value
						}
					}
				case ops[0].Delete:
					err = leader.Delete(ops[0].Key)
					delete(m, ops[0].Key)
				default:
					err = leader.Put(ops[0].Key, ops[0].Value)
					m[ops[0].Key] = ops[0].Value
				}
				if err != nil {
					t.Fatalf("mutate: %v", err)
				}
			}
			// catchUp ships the leader's log to the follower in odd page sizes.
			catchUp := func() {
				t.Helper()
				ship(t, leader, follower, []int{headerSize, 37, 1000, 7919, 1 << 20}[rng.Intn(5)])
			}
			// cutBack closes the leader, lets cut shorten its log file, and
			// reopens it: everything since the follower was last in sync is
			// expected to be gone from the leader again.
			cutBack := func(cut func()) {
				t.Helper()
				if err := leader.Close(); err != nil {
					t.Fatal(err)
				}
				cut()
				leader = open(leaderPath)
			}

			for step := 0; step < steps; step++ {
				switch op := rng.Intn(20); {
				case op < 12:
					mutate(model)
				case op < 14:
					if err := leader.Compact(); err != nil {
						t.Fatalf("compact: %v", err)
					}
					// Compaction moves every record: a follower's offset no
					// longer addresses the leader's log, so it resyncs from
					// scratch (the rule in repl.go).
					follower.Close()
					followerGen++
					follower = open(followerPath())
				case op < 16:
					if err := leader.Close(); err != nil {
						t.Fatal(err)
					}
					leader = open(leaderPath)
				case op < 17:
					if err := follower.Close(); err != nil {
						t.Fatal(err)
					}
					follower = open(followerPath())
				case op < 18:
					// Torn tail: one more committed record, then the file
					// loses its last bytes mid-record. Reopen drops it whole.
					catchUp()
					before := leader.CommitOffset()
					doomed := cloneModel(model)
					mutate(doomed)
					after := leader.CommitOffset()
					if after == before {
						continue // a delete of an absent key writes nothing
					}
					cutBack(func() {
						if err := os.Truncate(leaderPath, before+1+rng.Int63n(after-before-1)); err != nil {
							t.Fatal(err)
						}
					})
				default:
					// A deposed leader's tail cut at a record border.
					catchUp()
					border := leader.CommitOffset()
					doomed := cloneModel(model)
					for i := rng.Intn(3); i >= 0; i-- {
						mutate(doomed)
					}
					cutBack(func() {
						if err := TruncateLogAt(nil, leaderPath, border); err != nil {
							t.Fatal(err)
						}
					})
				}
				catchUp()
				assertMatchesModel(t, fmt.Sprintf("step %d leader", step), leader, model, keys)
				assertMatchesModel(t, fmt.Sprintf("step %d follower", step), follower, model, keys)
			}
		})
	}
}

// TestMemoryStoreKeepsValuesInline: a store with no log has nothing to refer
// into.
func TestMemoryStoreKeepsValuesInline(t *testing.T) {
	s := OpenMemory()
	defer s.Close()
	big := bytes.Repeat([]byte("x"), 4*refThreshold)
	if err := s.Put("k", big); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply([]Op{{Key: "a", Value: big}, {Key: "b", Value: big}}); err != nil {
		t.Fatal(err)
	}
	if _, referenced := s.ApproxMemBytes(); referenced != 0 {
		t.Fatalf("in-memory store references %d bytes", referenced)
	}
	if got, err := s.Get("b"); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("Get: %v", err)
	}
}

// --- concurrency -----------------------------------------------------------

// selfCheckingValue encodes (seed, n) so that a reader holding no model can
// tell a whole value from a torn, stale or misplaced one: 8 bytes of seed, 4
// of length, then a pattern both determine.
func selfCheckingValue(seed uint64, n int) []byte {
	if n < 12 {
		n = 12
	}
	v := make([]byte, n)
	binary.LittleEndian.PutUint64(v, seed)
	binary.LittleEndian.PutUint32(v[8:], uint32(n))
	for i := 12; i < n; i++ {
		v[i] = byte(seed>>(uint(i)%8*8)) + byte(i)
	}
	return v
}

func checkSelf(v []byte) bool {
	if len(v) < 12 || int(binary.LittleEndian.Uint32(v[8:])) != len(v) {
		return false
	}
	return bytes.Equal(v, selfCheckingValue(binary.LittleEndian.Uint64(v), len(v)))
}

// TestCompactBesideWritersAndReaders runs writers (values on both sides of the
// threshold, single puts, batches and deletes), readers of those values, and
// repeated Compact calls at once, then compares every key with a model, ships
// the compacted log to a fresh follower by pages, and reopens both. Under
// -race it is the test for Store.f (decided in-memory-ness from an
// unsynchronised read of it while Compact reassigned it); without, for the
// swap: a Get that saw the new handle with an old offset, or the old handle
// closed, fails its CRC or its read.
func TestCompactBesideWritersAndReaders(t *testing.T) {
	const writers, keysPer = 4, 24
	rounds := 150
	if testing.Short() {
		rounds = 60
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "kv.log")
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	key := func(w, i int) string { return fmt.Sprintf("w%d/k%02d", w, i) }
	sizes := []int{40, refThreshold - 1, refThreshold, 2400, 5000}

	// A resident population makes each rewrite long enough for commits to
	// land inside it, so references are rebased by the delta rule as well as
	// the snapshot rule.
	static := map[string][]byte{}
	var batch []Op
	for i := 0; i < 1500; i++ {
		k := fmt.Sprintf("static/k%04d", i)
		static[k] = selfCheckingValue(uint64(i), 2400)
		batch = append(batch, Op{Key: k, Value: static[k]})
	}
	if err := s.Apply(batch); err != nil {
		t.Fatal(err)
	}

	finals := make([]map[string][]byte, writers) // each writer's own keys: no write-write races
	var writing sync.WaitGroup
	var done atomic.Bool
	for w := 0; w < writers; w++ {
		finals[w] = map[string][]byte{}
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			mine := finals[w]
			for r := 0; r < rounds; r++ {
				k := key(w, rng.Intn(keysPer))
				v := selfCheckingValue(rng.Uint64(), sizes[rng.Intn(len(sizes))])
				var err error
				switch rng.Intn(6) {
				case 0:
					err = s.Delete(k)
					delete(mine, k)
				case 1:
					k2 := key(w, rng.Intn(keysPer))
					v2 := selfCheckingValue(rng.Uint64(), sizes[rng.Intn(len(sizes))])
					err = s.Apply([]Op{{Key: k, Value: v}, {Key: k2, Value: v2}})
					mine[k], mine[k2] = v, v2
				default:
					err = s.Put(k, v)
					mine[k] = v
				}
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	var reading sync.WaitGroup
	for r := 0; r < 3; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for !done.Load() {
				k := key(rng.Intn(writers), rng.Intn(keysPer))
				if v, err := s.Get(k); err == nil {
					if !checkSelf(v) {
						t.Errorf("reader: Get(%q) returned a damaged value (%d bytes)", k, len(v))
						return
					}
				} else if !errors.Is(err, ErrNotFound) {
					t.Errorf("reader: Get(%q): %v", k, err)
					return
				}
				if rng.Intn(16) == 0 {
					err := s.Scan(fmt.Sprintf("w%d/", rng.Intn(writers)), func(k string, v []byte) bool {
						if !checkSelf(v) {
							t.Errorf("reader: Scan value of %q damaged", k)
						}
						return true
					})
					if err != nil {
						t.Errorf("reader: Scan: %v", err)
						return
					}
				}
			}
		}(r)
	}
	writersDone := make(chan struct{})
	go func() { writing.Wait(); close(writersDone) }()
	for compacts, busy := 0, true; busy || compacts < 5; compacts++ {
		select {
		case <-writersDone:
			busy = false // the remaining rounds run beside the readers alone
		default:
		}
		if err := s.Compact(); err != nil {
			t.Errorf("compact %d: %v", compacts, err)
			break
		}
	}
	<-writersDone
	done.Store(true)
	reading.Wait()
	if t.Failed() {
		return
	}

	model := static
	var keys []string
	for k := range static {
		keys = append(keys, k)
	}
	for w := range finals {
		for i := 0; i < keysPer; i++ {
			keys = append(keys, key(w, i))
		}
		for k, v := range finals[w] {
			model[k] = v
		}
	}
	assertMatchesModel(t, "live", s, model, keys)

	follower, err := Open(filepath.Join(dir, "follower.log"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { follower.Close() }()
	ship(t, s, follower, 4093)
	assertMatchesModel(t, "follower", follower, model, keys)

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(path, Options{}); err != nil {
		t.Fatal(err)
	}
	assertMatchesModel(t, "reopened", s, model, keys)
	if follower, err = Open(filepath.Join(dir, "follower.log"), Options{}); err != nil {
		t.Fatal(err)
	}
	assertMatchesModel(t, "reopened follower", follower, model, keys)
}

// TestScanSnapshotSurvivesCompact: a scan's referenced values are read as the
// scan reaches them, from the log they were snapshotted in — a callback that
// overwrites and compacts mid-scan still sees the snapshot.
func TestScanSnapshotSurvivesCompact(t *testing.T) {
	s, _ := openTemp(t)
	want := map[string][]byte{}
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("k%d", i)
		want[k] = selfCheckingValue(uint64(i), 3000)
		if err := s.Put(k, want[k]); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	err := s.Scan("", func(k string, v []byte) bool {
		if !bytes.Equal(v, want[k]) {
			t.Fatalf("scan saw a value of %q that was not in its snapshot", k)
		}
		if seen == 0 {
			for k := range want {
				if err := s.Put(k, selfCheckingValue(99, 2000)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		seen++
		return true
	})
	if err != nil || seen != len(want) {
		t.Fatalf("scan: %d of %d keys, %v", seen, len(want), err)
	}
}

// --- bit rot ---------------------------------------------------------------

// TestReferencedValueBitRot flips one byte inside a referenced value in the
// live log file. The record CRC is only checked at replay, so the value's own
// CRC is what stands between the damage and the caller: Get and Scan must say
// ErrCorrupt, never return the bytes, and Compact must refuse to copy them —
// while every other key stays readable.
func TestReferencedValueBitRot(t *testing.T) {
	s, path := openTemp(t)
	big := selfCheckingValue(7, 3000)
	if err := s.Apply([]Op{
		{Key: "a/small", Value: []byte("fine")},
		{Key: "b/big", Value: big},
		{Key: "c/other", Value: selfCheckingValue(8, 2000)},
	}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(raw, big)
	if at < 0 {
		t.Fatal("value not found in the log")
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{raw[at+1500] ^ 0x40}, int64(at+1500)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	errsBefore := mValueReadErrs.Value()
	if v, err := s.Get("b/big"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get of a bit-rotted value: %d bytes, err %v; want ErrCorrupt", len(v), err)
	}
	if mValueReadErrs.Value() != errsBefore+1 {
		t.Fatal("kvstore_value_read_errors_total did not count the corrupt read")
	}
	var visited []string
	err = s.Scan("", func(k string, _ []byte) bool { visited = append(visited, k); return true })
	if !errors.Is(err, ErrCorrupt) || fmt.Sprint(visited) != "[a/small]" {
		t.Fatalf("Scan over a bit-rotted value: visited %v, err %v; want [a/small] and ErrCorrupt", visited, err)
	}
	if err := s.Compact(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Compact copied a bit-rotted value: %v", err)
	}
	for _, k := range []string{"a/small", "c/other"} {
		if _, err := s.Get(k); err != nil {
			t.Fatalf("undamaged key %q unreadable: %v", k, err)
		}
	}
	// Overwriting the damaged key heals it: the new value is a new place.
	if err := s.Put("b/big", big); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get("b/big"); err != nil || !bytes.Equal(v, big) {
		t.Fatalf("Get after overwrite: %v", err)
	}
}

// --- benchmarks ------------------------------------------------------------

// benchLake fills an in-memory store with the lake's key mix: nine keys per
// model, one of them under "model/".
func benchLake(b *testing.B, models int) *Store {
	b.Helper()
	s := OpenMemory()
	val := bytes.Repeat([]byte("v"), 200)
	ops := make([]Op, 0, 9)
	for i := 0; i < models; i++ {
		ops = ops[:0]
		for _, p := range []string{"model/", "card/", "name/", "vec/", "prov/ent/", "prov/rel/a/", "prov/rel/b/", "prov/act/", "fp/"} {
			ops = append(ops, Op{Key: fmt.Sprintf("%sm-%06d", p, i), Value: val})
		}
		if err := s.Apply(ops); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

var benchSink int

// BenchmarkCountModels is Registry.Count — and so every /readyz probe.
func BenchmarkCountModels(b *testing.B) {
	for _, models := range []int{4160, 100000} {
		b.Run(fmt.Sprint(models), func(b *testing.B) {
			s := benchLake(b, models)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = s.Count("model/")
			}
		})
	}
}

// BenchmarkScanNoMatch is a prefix scan that matches nothing.
func BenchmarkScanNoMatch(b *testing.B) {
	for _, models := range []int{4160, 100000} {
		b.Run(fmt.Sprint(models), func(b *testing.B) {
			s := benchLake(b, models)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Scan("dataset/", func(string, []byte) bool { benchSink++; return true })
			}
		})
	}
}
