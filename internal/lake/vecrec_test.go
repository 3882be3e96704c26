package lake

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"modellake/internal/kvstore"
	"modellake/internal/obs"
	"modellake/internal/registry"
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

	embeds0 := mEmbedMisses.Value()
	fast, err := Open(Config{Dir: dir, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	if n := mEmbedMisses.Value() - embeds0; n != 0 {
		t.Fatalf("vec-record reopen ran an embedder %d times", n)
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

	// A third handle on the directory: the embeds below are computed from
	// blob-loaded weights.
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
	fallbacks0 := mVecFallbacks[vecNamespace].Value()
	re, err := Open(Config{Dir: dir, Seed: 10, Probes: 24})
	if err != nil {
		t.Fatalf("reopen with changed embedding config failed: %v", err)
	}
	defer re.Close()
	if re.Count() != len(pop.Members) {
		t.Fatalf("count = %d, want %d", re.Count(), len(pop.Members))
	}
	// The stale vec records must have been bypassed: every model took the
	// decode-and-embed fallback.
	if n := mVecFallbacks[vecNamespace].Value() - fallbacks0; n != uint64(len(pop.Members)) {
		t.Fatalf("fallback rehydration: %d namespace fallbacks, want %d", n, len(pop.Members))
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

// logValueReads reads kvstore_value_reads_total{source="log"}: how many values
// the metadata store has fetched from its log by reference.
func logValueReads() uint64 {
	return obs.Default().Counter("kvstore_value_reads_total", obs.L("source", "log")).Value()
}

// TestDamagedVecRecordsReEmbed: a vec record that is gone, or does not decode,
// costs that one model a re-embed at Open — counted by reason, and the damaged
// one named in the log once per Open — and the reopened lake answers exactly
// like the one that embedded at ingest. Both vector residencies: the
// disk-resident lake must also put the re-embedded rows into its segment.
func TestDamagedVecRecordsReEmbed(t *testing.T) {
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			pop := population(t, 73)
			dir := t.TempDir()
			cfg := Config{Dir: dir, Seed: 12, DiskResidentVectors: disk}
			l, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ids := fill(t, l, pop)
			want := map[string]string{}
			for _, space := range []string{"behavior", "weights"} {
				for _, id := range ids {
					hits, err := l.SearchByModel(id, space, 5)
					if err != nil {
						t.Fatal(err)
					}
					want[space+"/"+id] = fmt.Sprint(hits)
				}
			}
			garbage := bytes.Repeat([]byte{0xfe}, 3000)
			if err := l.kv.Put(vecKey(ids[2]), garbage); err != nil {
				t.Fatal(err)
			}
			if err := l.kv.Delete(vecKey(ids[5])); err != nil {
				t.Fatal(err)
			}
			l.Close()

			var logged bytes.Buffer
			log.SetOutput(&logged)
			defer log.SetOutput(os.Stderr)
			corrupt0, missing0 := mVecFallbacks[vecCorrupt].Value(), mVecFallbacks[vecMissing].Value()
			re, err := Open(cfg)
			if err != nil {
				t.Fatalf("reopen over damaged vec records: %v", err)
			}
			defer re.Close()
			if c, m := mVecFallbacks[vecCorrupt].Value()-corrupt0, mVecFallbacks[vecMissing].Value()-missing0; c != 1 || m != 1 {
				t.Fatalf("fallbacks counted: %d corrupt, %d missing; want 1 and 1", c, m)
			}
			if out := logged.String(); strings.Count(out, "\n") != 1 || !strings.Contains(out, ids[2]) {
				t.Fatalf("want one log line naming %s, got %q", ids[2], out)
			}
			for _, space := range []string{"behavior", "weights"} {
				for _, id := range ids {
					hits, err := re.SearchByModel(id, space, 5)
					if err != nil {
						t.Fatalf("%s/%s: %v", space, id, err)
					}
					if got := fmt.Sprint(hits); got != want[space+"/"+id] {
						t.Fatalf("%s search for %s after re-embedding two models:\n want %s\n got  %s", space, id, want[space+"/"+id], got)
					}
				}
			}
		})
	}
}

// TestBitRottedVecRecordIsNotIndexed: one byte flipped inside a vec record in
// the live log. The metadata store keeps vec records by reference, so the
// record is read back from that log at rehydration — and must come back as
// ErrCorrupt, sending the model down the re-embed fallback with the vectors
// it had, never as the damaged floats.
func TestBitRottedVecRecordIsNotIndexed(t *testing.T) {
	pop := population(t, 74)
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ids := fill(t, l, pop)
	id := ids[3]
	stored, err := l.kv.Get(vecKey(id))
	if err != nil {
		t.Fatal(err)
	}
	if _, referenced := l.kv.ApproxMemBytes(); referenced == 0 {
		t.Fatal("vec records are not stored by reference: nothing to rot")
	}
	_, vecs, err := decodeVecRecord(stored)
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "lake.log")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(raw, stored)
	if at < 0 {
		t.Fatal("vec record not found in lake.log")
	}
	f, err := os.OpenFile(logPath, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The low mantissa byte of one float: a value that still decodes.
	flipAt := at + len(stored) - 8*5
	if _, err := f.WriteAt([]byte{raw[flipAt] ^ 1}, int64(flipAt)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	rec, err := l.reg.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	h := l.hydrateOne(rec, nil)
	if h.err != nil {
		t.Fatalf("a damaged vec record failed rehydration outright: %v", h.err)
	}
	if h.miss != vecCorrupt || !errors.Is(h.missErr, kvstore.ErrCorrupt) {
		t.Fatalf("fallback reason %q (%v), want %q with ErrCorrupt", h.miss, h.missErr, vecCorrupt)
	}
	for _, sv := range vecs {
		got := h.bvec
		if sv.Space == l.weightCS.EmbedderName() {
			got = h.wvec
		}
		if len(got) != len(sv.Vec) {
			t.Fatalf("%s: re-embedded dim %d, stored %d", sv.Space, len(got), len(sv.Vec))
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(sv.Vec[j]) {
				t.Fatalf("%s[%d]: re-embedded %v, originally %v", sv.Space, j, got[j], sv.Vec[j])
			}
		}
	}
}

// TestAdoptOnlyReopenReadsEachVecRecordOnce: a disk-resident lake whose
// segments match its vec records reopens with one referenced read per
// open-weights model — the running checksum — and holds no vector while it
// does. Only a reopen that has to rebuild a segment reads them again.
func TestAdoptOnlyReopenReadsEachVecRecordOnce(t *testing.T) {
	pop := population(t, 75)
	dir := t.TempDir()
	cfg := Config{Dir: dir, Seed: 14, DiskResidentVectors: true}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, pop)
	l.Close()
	n := uint64(len(pop.Members))

	before := logValueReads()
	if l, err = Open(cfg); err != nil { // segments hold no rows yet: rebuild
		t.Fatal(err)
	}
	l.Close()
	// One pass for the checksum, one per space for the build, and the build's
	// extra look at row 0 for the dimension.
	if got := logValueReads() - before; got != 3*n+2 {
		t.Fatalf("rebuilding reopen read %d referenced values for %d models, want %d", got, n, 3*n+2)
	}

	before = logValueReads()
	if l, err = Open(cfg); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := logValueReads() - before; got != n {
		t.Fatalf("adopt-only reopen read %d referenced values for %d models, want one each", got, n)
	}
	if l.behaviorCS.Len() != int(n) || l.weightCS.Len() != int(n) {
		t.Fatalf("adopted %d behaviour and %d weight rows, want %d", l.behaviorCS.Len(), l.weightCS.Len(), n)
	}
}

// TestServingTouchesNoReference: vec records are the only values a lake
// writes past the metadata store's reference threshold, and nothing but Open
// reads them — every request class and an ingest run with the referenced-read
// counter standing still, so a request never waits on a pread of lake.log.
func TestServingTouchesNoReference(t *testing.T) {
	pop := population(t, 76)
	dir := t.TempDir()
	l, err := Open(Config{Dir: dir, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	ids := fill(t, l, pop)
	l.Close()
	if l, err = Open(Config{Dir: dir, Seed: 15}); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, referenced := l.kv.ApproxMemBytes(); referenced == 0 {
		t.Fatal("vec records are not stored by reference: the test proves nothing")
	}

	before := logValueReads()
	for _, id := range ids {
		if _, err := l.Record(id); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Card(id); err != nil {
			t.Fatal(err)
		}
		for _, space := range []string{"behavior", "weights"} {
			if _, err := l.SearchByModel(id, space, 5); err != nil {
				t.Fatal(err)
			}
		}
	}
	l.SearchKeyword("legal summarization", 5)
	if _, err := l.Query("FIND MODELS WHERE DOMAIN = 'legal' LIMIT 5"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.VersionGraphContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	m := pop.Members[0]
	if _, err := l.Ingest(m.Model, m.Card, registry.RegisterOptions{Name: "one-more", Version: "1"}); err != nil {
		t.Fatal(err)
	}
	if l.Count() != len(ids)+1 {
		t.Fatalf("Count = %d", l.Count())
	}
	if got := logValueReads() - before; got != 0 {
		t.Fatalf("serving read %d values from the log by reference, want none", got)
	}
}
