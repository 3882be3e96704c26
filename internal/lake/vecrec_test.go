package lake

import (
	"fmt"
	"math"
	"testing"

	"modellake/internal/search"
	"modellake/internal/tensor"
)

func TestVecRecordRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		ns   string
		vecs []spaceVec
	}{
		{"two spaces", "in8_mc8_p32_s1", []spaceVec{
			{Space: "behavior", Vec: tensor.Vector{0.5, -1.25, 3e-9, math.MaxFloat64}},
			{Space: "weight", Vec: tensor.Vector{0, 1, 2}},
		}},
		{"single space", "ns", []spaceVec{
			{Space: "behavior", Vec: tensor.Vector{42}},
		}},
		{"empty vector", "ns", []spaceVec{
			{Space: "weight", Vec: tensor.Vector{}},
		}},
		{"no spaces", "only-ns", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := encodeVecRecord(tc.ns, tc.vecs)
			ns, vecs, err := decodeVecRecord(b)
			if err != nil {
				t.Fatal(err)
			}
			if ns != tc.ns {
				t.Fatalf("ns = %q, want %q", ns, tc.ns)
			}
			if len(vecs) != len(tc.vecs) {
				t.Fatalf("decoded %d spaces, want %d", len(vecs), len(tc.vecs))
			}
			for i := range vecs {
				if vecs[i].Space != tc.vecs[i].Space {
					t.Fatalf("space[%d] = %q, want %q", i, vecs[i].Space, tc.vecs[i].Space)
				}
				if len(vecs[i].Vec) != len(tc.vecs[i].Vec) {
					t.Fatalf("dim[%d] = %d, want %d", i, len(vecs[i].Vec), len(tc.vecs[i].Vec))
				}
				for j, f := range vecs[i].Vec {
					// Bitwise equality: rehydration must reproduce the exact
					// floats the embedder computed at ingest time.
					if math.Float64bits(f) != math.Float64bits(tc.vecs[i].Vec[j]) {
						t.Fatalf("vec[%d][%d] = %v, want %v", i, j, f, tc.vecs[i].Vec[j])
					}
				}
			}
		})
	}
}

func TestVecRecordMalformedRejected(t *testing.T) {
	good := encodeVecRecord("in8_mc8_p32_s1", []spaceVec{
		{Space: "behavior", Vec: tensor.Vector{1, 2, 3}},
		{Space: "weight", Vec: tensor.Vector{4, 5}},
	})
	// Every strict prefix must fail loudly, never decode to partial data.
	for n := 0; n < len(good); n++ {
		if _, _, err := decodeVecRecord(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", n)
		}
	}
	// Trailing garbage is rejected too.
	if _, _, err := decodeVecRecord(append(append([]byte{}, good...), 0xff)); err == nil {
		t.Fatal("record with trailing bytes decoded successfully")
	}
	// An unknown (future) version falls back rather than misparsing.
	bad := append([]byte{}, good...)
	bad[0] = vecRecVersion + 1
	if _, _, err := decodeVecRecord(bad); err == nil {
		t.Fatal("unknown version decoded successfully")
	}
}

// TestRehydrateFastMatchesEager: a lake rebuilt from its vec records is the
// lake that computed them. The reopened lake must answer every modality
// byte-identically to the live, never-closed lake that embedded at ingest,
// without embedding anything itself; and each stored vec record must hold,
// bit for bit, what a fresh embed of the model loaded back from its blob
// produces — the comparison a decode-and-embed reopen used to make.
func TestRehydrateFastMatchesEager(t *testing.T) {
	pop := population(t, 71)
	dir := t.TempDir()
	live, err := Open(Config{Dir: dir, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	ids := fill(t, live, pop)

	fast, err := Open(Config{Dir: dir, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if hits, misses := fast.EmbedCacheStats(); hits+misses != 0 {
		t.Fatalf("vec-record reopen embedded (%d memo hits, %d misses)", hits, misses)
	}

	if fast.Count() != live.Count() {
		t.Fatalf("counts differ: fast %d, live %d", fast.Count(), live.Count())
	}
	for _, space := range []string{"behavior", "weights"} {
		for _, id := range ids {
			want, err := live.SearchByModel(id, space, 4)
			if err != nil {
				t.Fatalf("live %s/%s: %v", space, id, err)
			}
			got, err := fast.SearchByModel(id, space, 4)
			if err != nil {
				t.Fatalf("fast %s/%s: %v", space, id, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s search for %s differs:\n live %v\n fast %v", space, id, want, got)
			}
		}
	}
	for _, q := range []string{"legal", "medical summarization", "finance"} {
		want := live.SearchKeyword(q, 5)
		got := fast.SearchKeyword(q, 5)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("keyword %q differs:\n live %v\n fast %v", q, want, got)
		}
	}
	ds := pop.Datasets[pop.Members[0].Truth.DatasetID]
	examples := search.DatasetAsTask(ds, 12)
	want, err := live.SearchTask(examples, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fast.SearchTask(examples, 5)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("task search differs:\n live %v\n fast %v", want, got)
	}

	// A third handle on the directory: its memo starts cold, so the embeds
	// below are computed here from blob-loaded weights, not remembered from
	// ingest.
	fresh, err := Open(Config{Dir: dir, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, id := range ids {
		b, err := fresh.kv.Get(vecKey(id))
		if err != nil {
			t.Fatalf("%s has no vec record: %v", id, err)
		}
		ns, vecs, err := decodeVecRecord(b)
		if err != nil || ns != fresh.vecNS {
			t.Fatalf("%s vec record: ns %q err %v", id, ns, err)
		}
		h, err := fresh.Model(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(vecs) != 2 {
			t.Fatalf("%s vec record holds %d spaces, want 2", id, len(vecs))
		}
		for _, sv := range vecs {
			cs := fresh.behaviorCS
			if sv.Space == fresh.weightCS.EmbedderName() {
				cs = fresh.weightCS
			}
			if sv.Space != cs.EmbedderName() {
				t.Fatalf("%s vec record names unknown space %q", id, sv.Space)
			}
			v, err := cs.EmbedQuery(h)
			if err != nil {
				t.Fatal(err)
			}
			if len(v) != len(sv.Vec) {
				t.Fatalf("%s %s: stored dim %d, fresh embed dim %d", id, sv.Space, len(sv.Vec), len(v))
			}
			for j := range v {
				if math.Float64bits(v[j]) != math.Float64bits(sv.Vec[j]) {
					t.Fatalf("%s %s[%d]: stored %v, fresh embed %v", id, sv.Space, j, sv.Vec[j], v[j])
				}
			}
		}
	}
}

// TestRehydrateNamespaceMismatchFallsBack: vec records carry the embedding
// namespace; reopening with different embedding parameters must ignore the
// stale vectors and rebuild by re-embedding, not serve wrong-space results.
func TestRehydrateNamespaceMismatchFallsBack(t *testing.T) {
	pop := population(t, 72)
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, Seed: 10, Probes: 16})
	if err != nil {
		t.Fatal(err)
	}
	ids := fill(t, l, pop)
	l.Close()

	// Different probe count → different behavior-embedding namespace.
	re, err := Open(Config{Dir: dir, Seed: 10, Probes: 24})
	if err != nil {
		t.Fatalf("reopen with changed embedding config failed: %v", err)
	}
	defer re.Close()
	if re.Count() != len(pop.Members) {
		t.Fatalf("count = %d, want %d", re.Count(), len(pop.Members))
	}
	// The stale vec records must have been bypassed: the fallback embeds
	// every model in both spaces through the (cold) memo. Members that share
	// weights are the only possible hits.
	if hits, misses := re.EmbedCacheStats(); hits+misses != uint64(2*len(pop.Members)) || misses <= hits {
		t.Fatalf("fallback rehydration: %d memo hits + %d misses, want %d lookups, mostly misses",
			hits, misses, 2*len(pop.Members))
	}
	// And the rebuilt indexes must agree with a lake that ingested the same
	// models under the new config in the first place.
	native, err := Open(Config{Seed: 10, Probes: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer native.Close()
	nativeIDs := fill(t, native, pop)
	for _, space := range []string{"behavior", "weights"} {
		for i, id := range ids {
			if nativeIDs[i] != id {
				t.Fatalf("member %d: id %s in the reopened lake, %s in the native one", i, id, nativeIDs[i])
			}
			want, err := native.SearchByModel(id, space, 4)
			if err != nil {
				t.Fatal(err)
			}
			got, err := re.SearchByModel(id, space, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 {
				t.Fatalf("%s search for %s after fallback rehydration returned nothing", space, id)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s search for %s: fallback rehydration differs from a native lake at the same config:\n native   %v\n fallback %v", space, id, want, got)
			}
		}
	}
}
