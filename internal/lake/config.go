package lake

import (
	"errors"
	"fmt"

	"modellake/internal/fault"
)

// Config configures a lake.
type Config struct {
	// Dir is the storage directory; empty means fully in-memory.
	Dir string
	// Sync fsyncs the metadata log on every write.
	Sync bool
	// InputDim / MaxClasses shape the shared behavioural probe space.
	// Models with other shapes are still stored and weight-indexed but not
	// behaviour-indexed. Defaults: 8 and 8.
	InputDim   int
	MaxClasses int
	// Probes is the behavioural probe count (default 32).
	Probes int
	// Seed drives all lake-internal randomness (PQ codebook training,
	// probe generation, weight-space probes).
	Seed uint64
	// The content indexes are exact flat indexes with one read path
	// (DESIGN.md §12) and two independent choices: which approximate tier
	// ranks the rows first — none by default, Quantize, or PQSubspaces —
	// and where the full-precision rows live — RAM by default, or
	// DiskResidentVectors. With a tier, a search ranks every row by an
	// approximate distance, keeps a k·RescoreFactor shortlist and rescores
	// it with the exact full-precision arithmetic, so the answer is bitwise
	// identical to the plain scan whenever the shortlist recalls the true
	// top-k — and unconditionally when k·RescoreFactor covers the lake.
	//
	// Quantize selects the int8 tier: 1 byte per vector component instead
	// of 8, and the most faithful ranking of the two.
	Quantize bool
	// PQSubspaces selects the product-quantized tier (DESIGN.md §14)
	// instead: each content vector is coded as this many one-byte subspace
	// centroids (values above the vector dimension clamp to it) and ranked
	// by an ADC lookup-table scan — a fraction of the int8 tier's resident
	// bytes, and a coarser ranking: measured through the HTTP benchmark at
	// the default RescoreFactor, 46–101 of 4160 related answers differed
	// from the flat scan (none at factor 64). Codebooks train
	// deterministically from Seed once an index holds 256 rows; below that
	// searches are plain exact scans. The tiers are alternatives:
	// incompatible with Quantize.
	PQSubspaces int
	// RescoreFactor overrides the tier's shortlist over-fetch multiplier.
	// Zero means the index default (index.DefaultRescoreFactor); non-zero
	// values require Quantize, PQSubspaces, or DiskResidentVectors and must
	// be at least MinRescoreFactor.
	RescoreFactor int
	// DiskResidentVectors moves the full-precision content vectors into
	// page-cache-friendly on-disk segments (Dir/vectors/<space>.seg): only
	// the ranking tier stays resident — the int8 tier unless PQSubspaces is
	// set — and only the shortlist rows are paged in for the exact rescore.
	// Requires Dir. Models ingested after Open are served from a bounded
	// in-RAM tail that spills into the segment as it fills — the persisted
	// vec records stay the durable source of truth, so a torn or stale
	// segment is simply rebuilt.
	DiskResidentVectors bool
	// DiskResidentPostings moves the keyword index's compact postings
	// segments onto disk (Dir/postings/kw-NN.seg): merges publish
	// checksummed segment files and queries pread only the blocks the
	// block-max scorer cannot prune, so a 100k+ lake no longer holds all
	// BM25 postings on heap. Requires Dir. Answers are bitwise-identical
	// to the in-RAM index; segments are derived state, verified against
	// the current cards on reopen and rebuilt from them on any damage.
	DiskResidentPostings bool
	// KeywordMergeThreshold overrides how many freshly written documents a
	// keyword shard's map tier buffers before merging into its compact
	// segment. Zero means the default (search.DefaultKeywordMergeThreshold);
	// negative disables segments, keeping the pure map-tier behaviour. A
	// reopened lake's cards are bulk-built into segments on the first
	// keyword request whatever the (non-negative) threshold.
	KeywordMergeThreshold int
	// DisableQueryCache turns off the invalidate-on-write LRU over
	// content-search results (keyed by space + query-vector hash + k; 1024
	// entries). By default repeated related-model queries against an
	// unchanged lake are served from the cache without touching the ANN
	// index.
	DisableQueryCache bool
	// VerifyBlobsOnOpen makes reopen read and checksum-verify every
	// weights blob (a full integrity sweep, O(total weight bytes)). By
	// default reopen only checks that every registered blob exists:
	// blob writes are atomic, every read checksum-verifies before
	// returning, so tampering is still detected on first use — while
	// Open stays O(records) no matter how large the weights are.
	VerifyBlobsOnOpen bool
	// FS routes all storage IO (metadata log and blob store) through a
	// fault-injectable filesystem — the test hook behind the lake's
	// crash-consistency suite. Nil uses the real filesystem.
	FS *fault.FS
	// BlobDir overrides the blob store location (default Dir/blobs). A
	// replica lake points it at its leader's blob directory: blobs are
	// immutable and content-addressed, so sharing the directory is the
	// embedded equivalent of leader and replicas reading one object store,
	// and WAL shipping only needs to carry metadata. Ignored for in-memory
	// lakes (empty Dir).
	BlobDir string
	// Follower marks this lake a WAL-shipping replica: its log must stay a
	// byte-identical prefix of its leader's, so nothing on the read path may
	// append to it. The one read path that writes is benchmark scoring
	// (scores cache durably); Follower redirects that cache to a private
	// in-memory store. Scores are deterministic, so a replica recomputing
	// one returns bit-identical results to the leader's cached copy.
	Follower bool
}

func (c Config) withDefaults() Config {
	if c.InputDim <= 0 {
		c.InputDim = 8
	}
	if c.MaxClasses <= 0 {
		c.MaxClasses = 8
	}
	if c.Probes <= 0 {
		c.Probes = 32
	}
	return c
}

// MinRescoreFactor is the lowest shortlist over-fetch multiplier a lake
// accepts for its quantized read tier. The index layer allows factor 1 so
// tests can construct recall misses on purpose; a production lake gets the
// floor, below which adversarially bunched vectors can push the true top-k
// out of the quantized shortlist and silently degrade exactness.
const MinRescoreFactor = 4

// validate rejects config combinations the lake cannot honor, before any
// storage is touched.
func (c Config) validate() error {
	if c.PQSubspaces < 0 {
		return fmt.Errorf("lake: PQSubspaces %d is negative", c.PQSubspaces)
	}
	if c.PQSubspaces > 0 && c.Quantize {
		return errors.New("lake: PQSubspaces and Quantize are alternative resident tiers; choose one")
	}
	if c.RescoreFactor != 0 {
		if !c.Quantize && c.PQSubspaces == 0 && !c.DiskResidentVectors {
			return errors.New("lake: RescoreFactor requires Quantize, PQSubspaces, or DiskResidentVectors")
		}
		if c.RescoreFactor < MinRescoreFactor {
			return fmt.Errorf("lake: RescoreFactor %d below minimum %d", c.RescoreFactor, MinRescoreFactor)
		}
	}
	if c.DiskResidentVectors && c.Dir == "" {
		return errors.New("lake: DiskResidentVectors requires Dir")
	}
	if c.DiskResidentPostings && c.Dir == "" {
		return errors.New("lake: DiskResidentPostings requires Dir")
	}
	return nil
}
