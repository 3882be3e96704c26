// Package kvstore implements a small embedded key-value store used as the
// durable metadata layer of the model lake (registry records, provenance
// journal, cached benchmark scores).
//
// The design is a classic append-only log with an in-memory index:
//
//   - Every mutation (put, delete, or atomic batch) is appended to a single
//     log file as a length-prefixed, CRC32-checksummed record and the file
//     is optionally fsynced.
//   - Concurrent writers are group-committed: callers enqueue a commit
//     waiter and the first enqueuer becomes the leader, drains the queue,
//     writes every waiter's record as one multi-record page, fsyncs once,
//     and wakes the cohort. A serial writer degenerates to the classic
//     one-fsync-per-record path; the win appears exactly when writers pile
//     up behind a sync.
//   - Apply commits several ops as a single all-or-nothing batch record, so
//     multi-key commits (registry registrations, provenance journals) need
//     no compensating rollback.
//   - Open replays the log to rebuild the in-memory state. A torn final
//     record (e.g. from a crash mid-append or a torn group-commit page) is
//     detected and truncated away; corruption anywhere earlier is reported
//     as ErrCorrupt rather than silently dropped.
//   - The in-memory state of a file-backed store holds small values inline
//     and, for values of refThreshold bytes and over, a reference (offset,
//     length, CRC-32) to where the value already sits in the log: the log is
//     the value store, and reading such a value is one checksummed pread.
//   - Compact rewrites the log from a copy-on-write snapshot while readers
//     and writers keep running; pages committed during the rewrite are
//     captured in a delta and appended behind the snapshot before the
//     atomic swap.
//
// Keys are ordered byte strings; Scan iterates a prefix in sorted order,
// which the registry uses for typed namespaces ("model/", "prov/", ...).
package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"modellake/internal/fault"
	"modellake/internal/obs"
)

// Store-level metrics, aggregated across every open store in the process.
// Append and fsync latency are timed separately: append latency tracks the
// page-cache write path while fsync latency is the real durability cost.
// Batch size and commit latency expose how well group commit is coalescing;
// the waiters gauge counts callers currently parked behind a leader.
var (
	mAppendDur = obs.Default().Histogram("kvstore_append_duration_seconds", nil)
	mFsyncDur  = obs.Default().Histogram("kvstore_fsync_duration_seconds", nil)
	mCommitDur = obs.Default().Histogram("kvstore_commit_duration_seconds", nil)
	mBatchSize = obs.Default().Histogram("kvstore_commit_batch_size",
		[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256})
	mWaiters   = obs.Default().Gauge("kvstore_commit_waiters")
	mRollbacks = obs.Default().Counter("kvstore_rollbacks_total")

	// Per-op counters are resolved once: a registry lookup renders label
	// strings and takes the registry mutex, which is measurable overhead on
	// ops as cheap as a map Get.
	mOpPut    = opCounter("put")
	mOpDelete = opCounter("delete")
	mOpApply  = opCounter("apply")
	mOpGet    = opCounter("get")
	mOpScan   = opCounter("scan")

	// Referenced-value reads, i.e. Gets and Scans answered by a pread of the
	// log. Inline reads are kvstore_ops_total{op="get"} minus these — the
	// hot path pays for no second counter.
	mValueReads    = obs.Default().Counter("kvstore_value_reads_total", obs.L("source", "log"))
	mValueReadDur  = obs.Default().Histogram("kvstore_value_read_duration_seconds", nil)
	mValueReadErrs = obs.Default().Counter("kvstore_value_read_errors_total")
	// Value bytes held in RAM versus left in the log, summed over every open
	// store in the process.
	mResidentBytes   = obs.Default().Gauge("kvstore_resident_value_bytes")
	mReferencedBytes = obs.Default().Gauge("kvstore_referenced_value_bytes")
)

func opCounter(op string) *obs.Counter {
	return obs.Default().Counter("kvstore_ops_total", obs.L("op", op))
}

// Sentinel errors.
var (
	ErrNotFound = errors.New("kvstore: key not found")
	ErrCorrupt  = errors.New("kvstore: corrupt log")
	ErrClosed   = errors.New("kvstore: store is closed")
	// ErrFailed marks a store whose log hit an IO error that could not be
	// rolled back; mutations fail fast rather than risk mid-log corruption.
	ErrFailed = errors.New("kvstore: store failed")
	// ErrBatchTooLarge rejects an Apply whose encoded record would exceed
	// maxRecordSize; callers should chunk.
	ErrBatchTooLarge = errors.New("kvstore: batch record too large")
)

const (
	opPut    byte = 1
	opDelete byte = 2
	// opBatch is an atomic multi-op record: every op inside it replays, or
	// (if the record is torn/corrupt at the tail) none of them do.
	opBatch byte = 3
	// opEpoch stamps a replication epoch into the log (see BumpEpoch). The
	// payload is [opEpoch][epoch u64 le]; it mutates the store's epoch, not
	// the key map.
	opEpoch byte = 4

	// headerSize is the fixed prefix of every record:
	// payloadLen(4) + crc(4).
	headerSize = 8
	// maxRecordSize guards against absurd lengths from corrupt headers.
	maxRecordSize = 64 << 20

	// DefaultMaxBatch bounds how many waiters a leader folds into one
	// commit page when Options.MaxBatch is zero.
	DefaultMaxBatch = 128

	// compactSuffix names the temporary rewrite target of Compact. A
	// leftover file (crash mid-compact) is removed on Open.
	compactSuffix = ".compact"

	// refThreshold is the value length from which a file-backed store keeps
	// a reference into the log instead of the bytes. It is a constant, not
	// an option, because one size test separates the lake's two kinds of
	// value cleanly: registry records, cards, provenance rows and name-index
	// entries are 200–500 B, read on every request, and stay inline, while
	// vec records (two spaces × dim × float64, ≈ 2.4 kB) are read once per
	// Open and are two thirds of the log. A pread costs a syscall plus the
	// CRC, so the threshold sits well above the hot values and, at 64× the
	// 16-byte reference, where the saving dwarfs the bookkeeping.
	refThreshold = 1 << 10
)

// epochKey is the sentinel Op key that carries an epoch stamp through the
// shared commit/decode/apply plumbing. The NUL prefix keeps it out of every
// legal user namespace ("model/", "score/", ...), and applyOps diverts it to
// the epoch register instead of the key map, so an epoch never surfaces from
// Get or Scan.
const epochKey = "\x00epoch"

// Op is one mutation inside an atomic batch (see Apply).
type Op struct {
	Key    string
	Value  []byte
	Delete bool // true = delete Key; Value is ignored
}

// waiter is one caller's seat in the group-commit queue. The leader commits
// its ops and reports the outcome on done (own waiter excepted — the leader
// keeps its result on the stack). Waiters are pooled: the done channel is
// buffered and drained exactly once per use, so reuse is safe.
type waiter struct {
	ops    []Op
	single [1]Op // backing array so Put/Delete enqueue without allocating
	done   chan error
}

var waiterPool = sync.Pool{
	New: func() any { return &waiter{done: make(chan error, 1)} },
}

func getWaiter() *waiter  { return waiterPool.Get().(*waiter) }
func putWaiter(w *waiter) { w.ops = nil; w.single[0] = Op{}; waiterPool.Put(w) }

// valueRef locates a committed value inside the log file. The record CRC
// covers a whole batch and cannot be re-checked for one value, so a reference
// carries the CRC-32 of the value alone, taken when the value was committed
// or replayed; a read that does not reproduce it is ErrCorrupt, never bytes.
type valueRef struct {
	off int64  // file offset of the value's first byte
	n   uint32 // value length, ≥ refThreshold (record size caps it far below 4 GiB)
	crc uint32
}

// logFile is the open log plus a pin count. A referenced read pins the handle
// its offsets belong to and reads with no store lock held; Compact and Close
// only drop the store's own pin, so a read in flight across a log swap
// finishes against the old (by then unlinked) file, which closes with the
// last unpin.
type logFile struct {
	*fault.File
	pins atomic.Int32 // the store's pin plus one per read in flight
}

func newLogFile(f *fault.File) *logFile {
	l := &logFile{File: f}
	l.pins.Store(1)
	return l
}

// pin reports false when the store has been closed and the last reader is
// gone: the file is closed and must not be read.
func (l *logFile) pin() bool {
	for {
		n := l.pins.Load()
		if n == 0 {
			return false
		}
		if l.pins.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// unpin closes the file with the last pin and returns that Close's error.
func (l *logFile) unpin() error {
	if l.pins.Add(-1) == 0 {
		return l.File.Close()
	}
	return nil
}

// readValue preads the value r refers to into buf (grown if too small) and
// verifies it against the reference's own CRC.
func (l *logFile) readValue(r valueRef, buf []byte) ([]byte, error) {
	start := time.Now()
	mValueReads.Inc()
	if cap(buf) < int(r.n) {
		buf = make([]byte, r.n)
	}
	buf = buf[:r.n]
	if _, err := l.ReadAt(buf, r.off); err != nil {
		mValueReadErrs.Inc()
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: log ends inside the value at offset %d", ErrCorrupt, r.off)
		}
		return nil, fmt.Errorf("kvstore: read value at offset %d: %w", r.off, err)
	}
	if crc32.ChecksumIEEE(buf) != r.crc {
		mValueReadErrs.Inc()
		return nil, fmt.Errorf("%w: value checksum mismatch at offset %d", ErrCorrupt, r.off)
	}
	mValueReadDur.Since(start)
	return buf, nil
}

// Store is a durable string-keyed byte store. It is safe for concurrent use.
//
// Lock order (never taken in reverse): qmu and fileMu are never held
// together; fileMu may take mu; nothing that holds mu takes another lock.
type Store struct {
	mu sync.RWMutex // guards data, refs and the byte counts; f together with fileMu
	// A live key is in exactly one of the two maps: data holds its bytes,
	// refs points at them in the log (file-backed stores, values of
	// refThreshold and over). Two maps rather than one wider entry so an
	// inline value costs exactly what it did before references existed.
	data            map[string][]byte
	refs            map[string]valueRef
	residentBytes   int64 // Σ len over data
	referencedBytes int64 // Σ n over refs

	// epoch is the replication leadership epoch last seen in the log (0 =
	// never stamped). Replay, local commits, and shipped pages all land here
	// through the opEpoch record type.
	epoch atomic.Uint64

	closed atomic.Bool

	path     string // empty for a purely in-memory store
	fsys     *fault.FS
	sync     bool
	maxBatch int
	maxDelay time.Duration

	// Group-commit queue. A writer appends its waiter under qmu; if no
	// leader is active it becomes the leader, else it blocks on its waiter.
	qmu      sync.Mutex
	pending  []*waiter
	leading  bool
	drained  *sync.Cond // signaled (with qmu) whenever a leader steps down
	batchBuf []*waiter  // leader-only scratch, serialized by the leading flag

	// Log file state. commitBatch holds fileMu across write+fsync+apply so
	// log order always equals in-memory apply order. f is written only with
	// fileMu and mu both held, so either lock suffices to read it: the
	// commit paths hold fileMu, referenced reads hold mu.
	fileMu     sync.Mutex
	f          *logFile // nil for in-memory
	size       int64    // end offset of the last fully acknowledged record
	ioErr      error    // poison: set when a failed append could not be rolled back
	pageBuf    []byte   // reusable commit-page buffer
	voffBuf    []int    // reusable: offset in pageBuf of each op's value
	compacting bool     // a compaction snapshot is being written
	delta      []byte   // pages committed while compacting, replayed over the snapshot

	compactMu sync.Mutex // serializes whole Compact calls

	// notify is the coalescing commit-notification channel behind
	// CommitNotify (see repl.go). Buffered size 1: a pending wakeup absorbs
	// further commits until the listener drains it.
	notify chan struct{}
}

// Options configures Open.
type Options struct {
	// Sync forces an fsync after every commit page. Slower but
	// crash-durable; group commit amortizes the fsync across every writer
	// in the page.
	Sync bool
	// FS routes all file IO, letting tests inject faults at every write
	// point (see internal/fault). Nil uses the real filesystem.
	FS *fault.FS
	// MaxBatch caps how many waiters the commit leader folds into one page
	// (0 = DefaultMaxBatch). Larger pages amortize the fsync further at the
	// cost of latency for the first waiter in the page.
	MaxBatch int
	// MaxDelay makes a newly elected leader linger briefly before its first
	// drain so concurrent writers can join the page (0 = commit
	// immediately). Coalescing already happens naturally whenever writers
	// queue up behind an in-flight fsync; the delay only helps bursty
	// arrivals on very fast disks.
	MaxDelay time.Duration
}

// OpenMemory returns an in-memory store with no durability. It is handy for
// tests and ephemeral lakes.
func OpenMemory() *Store {
	s := &Store{data: make(map[string][]byte), notify: make(chan struct{}, 1)}
	s.drained = sync.NewCond(&s.qmu)
	return s
}

// Open opens (or creates) the store logged at path.
func Open(path string, opts Options) (*Store, error) {
	// A crash mid-compact can leave the rewrite target behind; the real log
	// is still authoritative, so discard the leftover.
	_ = opts.FS.Remove(path + compactSuffix)
	f, err := opts.FS.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kvstore: open %s: %w", path, err)
	}
	s := &Store{
		data:     make(map[string][]byte),
		refs:     make(map[string]valueRef),
		path:     path,
		f:        newLogFile(f),
		fsys:     opts.FS,
		sync:     opts.Sync,
		maxBatch: opts.MaxBatch,
		maxDelay: opts.MaxDelay,
		notify:   make(chan struct{}, 1),
	}
	if s.maxBatch <= 0 {
		s.maxBatch = DefaultMaxBatch
	}
	s.drained = sync.NewCond(&s.qmu)
	fail := func(err error) (*Store, error) {
		s.forgetGauges()
		f.Close()
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return fail(fmt.Errorf("kvstore: stat %s: %w", path, err))
	}
	validLen, err := s.replay(fi.Size())
	if err != nil {
		return fail(err)
	}
	// Truncate a torn tail so subsequent appends start at a clean boundary.
	if fi.Size() > validLen {
		if err := f.Truncate(validLen); err != nil {
			return fail(fmt.Errorf("kvstore: truncate torn tail: %w", err))
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return fail(fmt.Errorf("kvstore: seek: %w", err))
	}
	s.size = validLen
	return s, nil
}

// replayBufSize is the read-ahead buffer used while scanning the log on
// Open. Replay dominates the cost of opening a large store, and reading
// through a buffer turns the two small read syscalls per record into a
// handful of large sequential ones.
const replayBufSize = 1 << 20

// replay scans the fileSize-byte log, rebuilding the in-memory state through
// the same decode + apply the replication path uses, and returns the byte
// offset of the end of the last complete, valid record.
//
// Every record is read into one reused buffer: applyOps copies inline values
// out and keeps only (offset, length, CRC) of the rest. Storing slices of the
// payload instead would let one 200-byte card pin its whole batch record —
// 128 models, ≈ 466 kB, vectors included — for the life of the process.
func (s *Store) replay(fileSize int64) (int64, error) {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("kvstore: seek: %w", err)
	}
	r := bufio.NewReaderSize(s.f, replayBufSize)
	var offset int64
	hdr := make([]byte, headerSize)
	var payload []byte
	var voffs []int
	for {
		_, err := io.ReadFull(r, hdr)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// Clean end, or a torn header at the tail: stop at the last good
			// record.
			return offset, nil
		}
		if err != nil {
			return 0, fmt.Errorf("kvstore: read header: %w", err)
		}
		payloadLen := binary.LittleEndian.Uint32(hdr[0:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if payloadLen > maxRecordSize {
			return 0, fmt.Errorf("%w: record length %d at offset %d", ErrCorrupt, payloadLen, offset)
		}
		recEnd := offset + int64(headerSize) + int64(payloadLen)
		if recEnd > fileSize {
			// Torn payload at the tail. Checked before sizing the buffer, so
			// a length field can never claim more than the file holds.
			return offset, nil
		}
		if cap(payload) < int(payloadLen) {
			payload = make([]byte, payloadLen)
		}
		payload = payload[:payloadLen]
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return offset, nil
			}
			return 0, fmt.Errorf("kvstore: read payload: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			// A bad checksum mid-log is real corruption; at the very tail it
			// could be a torn write, but we cannot distinguish, so only fail
			// when more bytes follow the damaged record.
			if recEnd >= fileSize {
				return offset, nil
			}
			return 0, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, offset)
		}
		var ops []Op
		ops, voffs, err = decodePayloadOps(payload, 0, voffs[:0])
		if err != nil {
			return 0, err
		}
		s.applyOps(ops, offset+headerSize, voffs)
		offset = recEnd
	}
}

// decodeBatch parses an opBatch payload:
//
//	[opBatch][count u32] then per op: [kind byte][keyLen u32][valLen u32][key][val]
//
// It fully validates bounds before returning, so a caller can treat the
// result as atomic. Returned values alias p; base and voffs are as in
// decodePayloadOps.
func decodeBatch(p []byte, base int, voffs []int) ([]Op, []int, error) {
	count := binary.LittleEndian.Uint32(p[1:5])
	// An op encodes to at least 9 bytes, so the payload's own length bounds
	// what the count field may claim — and what is allocated for it.
	if int64(count) > int64(len(p)-5)/9 {
		return nil, nil, fmt.Errorf("%w: batch count %d", ErrCorrupt, count)
	}
	ops := make([]Op, 0, count)
	off := 5
	for i := uint32(0); i < count; i++ {
		if off+9 > len(p) {
			return nil, nil, fmt.Errorf("%w: truncated batch op", ErrCorrupt)
		}
		kind := p[off]
		keyLen := int(binary.LittleEndian.Uint32(p[off+1 : off+5]))
		valLen := int(binary.LittleEndian.Uint32(p[off+5 : off+9]))
		off += 9
		if keyLen < 0 || valLen < 0 || off+keyLen+valLen > len(p) {
			return nil, nil, fmt.Errorf("%w: batch op overruns payload", ErrCorrupt)
		}
		key := string(p[off : off+keyLen])
		off += keyLen
		var val []byte
		if kind == opPut {
			val = p[off : off+valLen : off+valLen]
		} else if kind != opDelete {
			return nil, nil, fmt.Errorf("%w: unknown batch op %d", ErrCorrupt, kind)
		}
		voffs = append(voffs, base+off)
		off += valLen
		ops = append(ops, Op{Key: key, Value: val, Delete: kind == opDelete})
	}
	if off != len(p) {
		return nil, nil, fmt.Errorf("%w: trailing bytes in batch record", ErrCorrupt)
	}
	return ops, voffs, nil
}

// appendRecordPage appends one record (header + payload) for ops to page,
// and to voffs the offset within page of each op's value (meaningful for
// puts only) — the encoder's half of the bookkeeping that lets applyOps turn
// a large value into a reference to where it was just written. A single op
// uses the legacy record format so old logs and new logs share one replay
// path; multiple ops use the atomic batch format.
func appendRecordPage(page []byte, voffs []int, ops []Op) ([]byte, []int) {
	if len(ops) == 1 && ops[0].Key == epochKey && !ops[0].Delete {
		// Epoch stamp: a dedicated record type, so logs written before
		// epochs existed replay unchanged and followers can't mistake the
		// sentinel for data.
		hdrAt := len(page)
		page = append(page, make([]byte, headerSize)...)
		payloadAt := len(page)
		page = append(page, opEpoch)
		page = append(page, ops[0].Value[:8]...)
		binary.LittleEndian.PutUint32(page[hdrAt:hdrAt+4], uint32(len(page)-payloadAt))
		binary.LittleEndian.PutUint32(page[hdrAt+4:hdrAt+8], crc32.ChecksumIEEE(page[payloadAt:]))
		return page, append(voffs, 0)
	}
	var payloadLen int
	if len(ops) == 1 {
		payloadLen = 5 + len(ops[0].Key) + len(ops[0].Value)
		if ops[0].Delete {
			payloadLen = 5 + len(ops[0].Key)
		}
	} else {
		payloadLen = 5
		for i := range ops {
			payloadLen += 9 + len(ops[i].Key)
			if !ops[i].Delete {
				payloadLen += len(ops[i].Value)
			}
		}
	}
	hdrAt := len(page)
	page = append(page, make([]byte, headerSize)...)
	payloadAt := len(page)
	if len(ops) == 1 {
		op := &ops[0]
		kind := opPut
		if op.Delete {
			kind = opDelete
		}
		page = append(page, kind)
		page = binary.LittleEndian.AppendUint32(page, uint32(len(op.Key)))
		page = append(page, op.Key...)
		voffs = append(voffs, len(page))
		if !op.Delete {
			page = append(page, op.Value...)
		}
	} else {
		page = append(page, opBatch)
		page = binary.LittleEndian.AppendUint32(page, uint32(len(ops)))
		for i := range ops {
			op := &ops[i]
			kind := opPut
			vlen := len(op.Value)
			if op.Delete {
				kind = opDelete
				vlen = 0
			}
			page = append(page, kind)
			page = binary.LittleEndian.AppendUint32(page, uint32(len(op.Key)))
			page = binary.LittleEndian.AppendUint32(page, uint32(vlen))
			page = append(page, op.Key...)
			voffs = append(voffs, len(page))
			if !op.Delete {
				page = append(page, op.Value...)
			}
		}
	}
	binary.LittleEndian.PutUint32(page[hdrAt:hdrAt+4], uint32(payloadLen))
	binary.LittleEndian.PutUint32(page[hdrAt+4:hdrAt+8], crc32.ChecksumIEEE(page[payloadAt:]))
	return page, voffs
}

// opsSize returns the encoded record size for ops (header included).
func opsSize(ops []Op) int {
	n := headerSize + 5
	if len(ops) == 1 {
		n += len(ops[0].Key)
		if !ops[0].Delete {
			n += len(ops[0].Value)
		}
		return n
	}
	for i := range ops {
		n += 9 + len(ops[i].Key)
		if !ops[i].Delete {
			n += len(ops[i].Value)
		}
	}
	return n
}

// applyOps applies committed ops to the in-memory state. Caller holds s.mu
// (replay excepted: nothing else can see the store yet).
//
// base is the file offset of the buffer the ops were encoded into or decoded
// from, and voffs[i] the offset within that buffer of ops[i]'s value: a value
// of refThreshold bytes or more is kept as a reference to base+voffs[i],
// anything smaller is copied inline. Callers apply only after the bytes at
// base are written and (when durable) fsynced, so a reference never points
// into a page rollbackTail could take back. A nil voffs — an in-memory store
// — keeps every value inline.
func (s *Store) applyOps(ops []Op, base int64, voffs []int) {
	resident, referenced := s.residentBytes, s.referencedBytes
	for i := range ops {
		op := &ops[i]
		if op.Key == epochKey {
			if len(op.Value) == 8 {
				s.epoch.Store(binary.LittleEndian.Uint64(op.Value))
			}
			continue
		}
		if old, ok := s.data[op.Key]; ok {
			s.residentBytes -= int64(len(old))
			delete(s.data, op.Key)
		} else if old, ok := s.refs[op.Key]; ok {
			s.referencedBytes -= int64(old.n)
			delete(s.refs, op.Key)
		}
		switch {
		case op.Delete:
		case voffs != nil && len(op.Value) >= refThreshold:
			s.refs[op.Key] = valueRef{
				off: base + int64(voffs[i]),
				n:   uint32(len(op.Value)),
				crc: crc32.ChecksumIEEE(op.Value),
			}
			s.referencedBytes += int64(len(op.Value))
		default:
			cp := make([]byte, len(op.Value))
			copy(cp, op.Value)
			s.data[op.Key] = cp
			s.residentBytes += int64(len(cp))
		}
	}
	if d := s.residentBytes - resident; d != 0 {
		mResidentBytes.Add(d)
	}
	if d := s.referencedBytes - referenced; d != 0 {
		mReferencedBytes.Add(d)
	}
}

// forgetGauges takes this store's bytes back out of the process-wide
// resident / referenced gauges when it stops being an open store.
func (s *Store) forgetGauges() {
	s.mu.RLock()
	mResidentBytes.Add(-s.residentBytes)
	mReferencedBytes.Add(-s.referencedBytes)
	s.mu.RUnlock()
}

// commit enqueues w and blocks until its ops are durably committed (or
// fail). The first writer to find the queue leaderless becomes the leader:
// it drains the queue in bounded batches, writes each batch as one page,
// fsyncs once per page, applies the ops, and wakes the followers.
func (s *Store) commit(w *waiter) error {
	if s.path == "" {
		// In-memory store: no log, apply directly.
		s.mu.Lock()
		s.applyOps(w.ops, 0, nil)
		s.mu.Unlock()
		putWaiter(w)
		s.notifyCommit()
		return nil
	}
	s.qmu.Lock()
	s.pending = append(s.pending, w)
	if s.leading {
		s.qmu.Unlock()
		mWaiters.Inc()
		err := <-w.done
		mWaiters.Dec()
		putWaiter(w)
		return err
	}
	s.leading = true
	s.qmu.Unlock()

	if s.maxDelay > 0 {
		time.Sleep(s.maxDelay)
	}
	var myErr error
	for {
		s.qmu.Lock()
		n := len(s.pending)
		if n == 0 {
			s.leading = false
			s.drained.Broadcast()
			s.qmu.Unlock()
			break
		}
		if n > s.maxBatch {
			n = s.maxBatch
		}
		batch := append(s.batchBuf[:0], s.pending[:n]...)
		s.batchBuf = batch
		rest := copy(s.pending, s.pending[n:])
		for i := rest; i < len(s.pending); i++ {
			s.pending[i] = nil
		}
		s.pending = s.pending[:rest]
		s.qmu.Unlock()

		err := s.commitBatch(batch)
		for _, bw := range batch {
			if bw == w {
				// The leader's own waiter: just record the result. It must
				// NOT be recycled yet — if the pool handed it to another
				// caller while this loop is still draining, that caller's
				// waiter would alias w, match this pointer check in a later
				// batch, and never be woken.
				myErr = err
				continue
			}
			bw.done <- err
		}
	}
	putWaiter(w)
	return myErr
}

// commitBatch writes every waiter's record as one page, fsyncs once (if
// durable), and applies the ops. Holding fileMu across write+apply keeps
// log order identical to in-memory apply order; the fsync gates the apply
// so an acknowledged write is always durable and a failed sync acknowledges
// nothing.
func (s *Store) commitBatch(batch []*waiter) error {
	start := time.Now()
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	if s.ioErr != nil {
		return fmt.Errorf("%w: %v", ErrFailed, s.ioErr)
	}
	page, voffs := s.pageBuf[:0], s.voffBuf[:0]
	for _, w := range batch {
		page, voffs = appendRecordPage(page, voffs, w.ops)
	}
	s.pageBuf, s.voffBuf = page, voffs
	wstart := time.Now()
	if _, err := s.f.Write(page); err != nil {
		s.rollbackTail(err)
		return fmt.Errorf("kvstore: append: %w", err)
	}
	mAppendDur.Since(wstart)
	if s.sync {
		fstart := time.Now()
		if err := s.f.Sync(); err != nil {
			// The page reached the OS but its durability is unknown;
			// treating it as written after a failed fsync is the classic
			// path to acknowledged-write loss, so discard it.
			s.rollbackTail(err)
			return fmt.Errorf("kvstore: fsync: %w", err)
		}
		mFsyncDur.Since(fstart)
	}
	base := s.size
	s.size += int64(len(page))
	if s.compacting {
		s.delta = append(s.delta, page...)
	}
	s.mu.Lock()
	for _, w := range batch {
		s.applyOps(w.ops, base, voffs[:len(w.ops)])
		voffs = voffs[len(w.ops):]
	}
	s.mu.Unlock()
	mBatchSize.Observe(float64(len(batch)))
	mCommitDur.Since(start)
	s.notifyCommit()
	return nil
}

// rollbackTail discards a partially written (or written-but-possibly-not-
// durable) page after a failed append so the next append starts at a clean
// record boundary instead of landing after garbage — which would turn a
// recoverable torn tail into mid-log corruption. If the tail cannot be
// discarded the store is poisoned: further mutations return ErrFailed.
func (s *Store) rollbackTail(cause error) {
	mRollbacks.Inc()
	if err := s.f.Truncate(s.size); err != nil {
		s.ioErr = cause
		return
	}
	if _, err := s.f.Seek(s.size, io.SeekStart); err != nil {
		s.ioErr = cause
	}
}

// Put stores value under key, overwriting any previous value. The caller's
// value slice is only read until Put returns.
func (s *Store) Put(key string, value []byte) error {
	mOpPut.Inc()
	if s.closed.Load() {
		return ErrClosed
	}
	w := getWaiter()
	w.single[0] = Op{Key: key, Value: value}
	w.ops = w.single[:1]
	return s.commit(w)
}

// Delete removes key. Deleting an absent key is a no-op.
func (s *Store) Delete(key string) error {
	mOpDelete.Inc()
	if s.closed.Load() {
		return ErrClosed
	}
	if !s.Has(key) {
		return nil
	}
	w := getWaiter()
	w.single[0] = Op{Key: key, Delete: true}
	w.ops = w.single[:1]
	return s.commit(w)
}

// Apply commits ops as a single atomic batch: either every op is durable
// and visible, or none is. Replay of a torn or corrupt batch record at the
// log tail discards the whole batch, so multi-key commits need no
// compensating rollback. The ops slice and its values are only read until
// Apply returns. Batches whose encoded record would exceed the record size
// limit return ErrBatchTooLarge; callers should chunk.
func (s *Store) Apply(ops []Op) error {
	mOpApply.Inc()
	if s.closed.Load() {
		return ErrClosed
	}
	if len(ops) == 0 {
		return nil
	}
	if opsSize(ops) > maxRecordSize {
		return fmt.Errorf("%w: %d ops encode to %d bytes", ErrBatchTooLarge, len(ops), opsSize(ops))
	}
	w := getWaiter()
	w.ops = ops
	return s.commit(w)
}

// Epoch returns the replication leadership epoch last committed to (or
// replayed from, or shipped into) this store's log. Zero means the log has
// never been stamped — a store that has only ever had one leader.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// BumpEpoch durably stamps a new leadership epoch into the log. The epoch is
// a monotonic fencing token for replication: a freshly promoted leader bumps
// it as its first committed record, so the byte offset of the stamp marks
// exactly where histories may begin to diverge. The stamp rides the log as
// an ordinary record — group-committed, CRC-checked, shipped to followers by
// ReadLogRange, replayed on Open — so every node that reaches that offset
// learns the leadership change without any side channel. Epochs must grow:
// a stamp at or below the current epoch is rejected.
func (s *Store) BumpEpoch(epoch uint64) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if cur := s.epoch.Load(); epoch <= cur {
		return fmt.Errorf("kvstore: epoch %d not beyond current epoch %d", epoch, cur)
	}
	var v [8]byte
	binary.LittleEndian.PutUint64(v[:], epoch)
	w := getWaiter()
	w.single[0] = Op{Key: epochKey, Value: v[:]}
	w.ops = w.single[:1]
	return s.commit(w)
}

// SetSync flips per-commit fsync on a live store. Replicas run with
// Sync:false (a crashed replica re-ships from its own offset, so it never
// needs fsync-gated acks of its own); promotion to leader flips it back on
// so acked writes regain the durability contract.
func (s *Store) SetSync(on bool) {
	s.fileMu.Lock()
	s.sync = on
	s.fileMu.Unlock()
}

// Get returns the value stored under key, or ErrNotFound. A value the store
// keeps by reference is read back from the log and checked against its CRC;
// one that no longer matches is ErrCorrupt.
func (s *Store) Get(key string) ([]byte, error) {
	mOpGet.Inc()
	if s.closed.Load() {
		return nil, ErrClosed
	}
	s.mu.RLock()
	if v, ok := s.data[key]; ok {
		cp := make([]byte, len(v))
		copy(cp, v)
		s.mu.RUnlock()
		return cp, nil
	}
	r, ok := s.refs[key]
	f := s.f
	pinned := ok && f.pin()
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if !pinned {
		return nil, ErrClosed
	}
	defer f.unpin()
	return f.readValue(r, nil)
}

// Has reports whether key is present.
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if _, ok := s.data[key]; ok {
		return true
	}
	_, ok := s.refs[key]
	return ok
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data) + len(s.refs)
}

// Count returns the number of live keys with the given prefix. Unlike
// len(Keys(prefix)) it takes no snapshot, sorts nothing and allocates
// nothing: it walks the key set under the read lock.
func (s *Store) Count(prefix string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for k := range s.data {
		if strings.HasPrefix(k, prefix) {
			n++
		}
	}
	for k := range s.refs {
		if strings.HasPrefix(k, prefix) {
			n++
		}
	}
	return n
}

// ApproxMemBytes estimates the heap retained by the live state — keys,
// resident values, references, and a rough 48-byte per-entry bucket overhead
// (the same heuristic the search indexes use, so lake tier reports add up) —
// and, beside it, the value bytes that are not resident: left in the log and
// reachable through a reference.
func (s *Store) ApproxMemBytes() (resident, referenced int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for k := range s.data {
		resident += int64(len(k)) + 16 + 24 + 48
	}
	for k := range s.refs {
		resident += int64(len(k)) + 16 + 16 + 48
	}
	return resident + s.residentBytes, s.referencedBytes
}

// entry is one key of a snapshot: its inline bytes, or — r.n is never zero
// for one — the reference to them.
type entry struct {
	k string
	v []byte
	r valueRef
}

// snapshot returns the entries under prefix in key order, sized by what
// matched. Inline values are shared, not copied (nothing mutates a stored
// value in place). When any entry is a reference, the log file its offsets
// belong to is returned pinned, so the values stay readable across a Compact
// or Close; the caller unpins it when done.
func (s *Store) snapshot(prefix string) ([]entry, *logFile, error) {
	var snap []entry
	var f *logFile
	s.mu.RLock()
	for k, v := range s.data {
		if strings.HasPrefix(k, prefix) {
			snap = append(snap, entry{k: k, v: v})
		}
	}
	for k, r := range s.refs {
		if strings.HasPrefix(k, prefix) {
			snap = append(snap, entry{k: k, r: r})
			f = s.f
		}
	}
	pinned := f == nil || f.pin()
	s.mu.RUnlock()
	if !pinned {
		return nil, nil, ErrClosed
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i].k < snap[j].k })
	return snap, f, nil
}

// Scan calls fn for every key with the given prefix, in sorted key order.
// Returning false from fn stops the scan. The matching entries are
// snapshotted under the lock first and fn runs lock-free, so a callback may
// safely call back into the store (Get, Put, even Scan) without
// self-deadlocking; mutations made by the callback are not reflected in the
// snapshot being iterated. A referenced value is read from the log only when
// the scan reaches it, one at a time, and a corrupt one ends the scan with
// ErrCorrupt. The value slice passed to fn must not be retained or modified.
func (s *Store) Scan(prefix string, fn func(key string, value []byte) bool) error {
	mOpScan.Inc()
	if s.closed.Load() {
		return ErrClosed
	}
	snap, f, err := s.snapshot(prefix)
	if err != nil {
		return err
	}
	if f != nil {
		defer f.unpin()
	}
	var buf []byte
	for i := range snap {
		v := snap[i].v
		if snap[i].r.n != 0 {
			if buf, err = f.readValue(snap[i].r, buf); err != nil {
				return err
			}
			v = buf
		}
		if !fn(snap[i].k, v) {
			return nil
		}
	}
	return nil
}

// Keys returns all live keys with the given prefix in sorted order. No value
// is read.
func (s *Store) Keys(prefix string) []string {
	mOpScan.Inc()
	if s.closed.Load() {
		return nil
	}
	snap, f, err := s.snapshot(prefix)
	if err != nil {
		return nil
	}
	if f != nil {
		f.unpin()
	}
	var out []string
	for i := range snap {
		out = append(out, snap[i].k)
	}
	return out
}

// Compact rewrites the log so it contains exactly the live records. It is a
// no-op for in-memory stores.
//
// The rewrite is non-blocking: the live state is snapshotted copy-on-write
// (value slices are never mutated in place, so sharing them is safe;
// referenced values are copied out of the old log by pread) and written to a
// temporary file while readers and writers keep running. Pages committed
// during the rewrite are captured in a delta and appended behind the snapshot
// — records carry full values, so replaying the delta over the snapshot is
// idempotent and yields exactly the live state. Only the final swap (delta
// append + fsync + rename + dir fsync) briefly holds the file lock.
//
// The swap moves every value, so it rebases every reference, and installs
// the new offsets together with the new file handle in one step under mu: a
// concurrent Get sees the old handle with old offsets or the new with new,
// never a mix, and never a closed file — the old handle is only unpinned,
// after the swap. A reference below deltaStart (the old log's size when
// capture began) is a snapshot value and moves to the offset the rewrite put
// it at; one at or above it sits in a captured page, and since the delta is a
// byte copy of the old log from deltaStart on, it moves by
// snapshotLen − deltaStart.
func (s *Store) Compact() error {
	if s.closed.Load() {
		return ErrClosed
	}
	if s.path == "" {
		return nil
	}
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}

	// Phase 0: start capturing concurrent commits *before* snapshotting, so
	// a commit that lands between the two is both in the snapshot and in
	// the delta (harmless) rather than in neither (lost).
	s.fileMu.Lock()
	s.compacting = true
	s.delta = s.delta[:0]
	deltaStart := s.size
	s.fileMu.Unlock()
	stopCapture := func() { // caller holds fileMu
		s.compacting = false
		s.delta = s.delta[:0]
	}
	snap, old, err := s.snapshot("")
	if old != nil {
		defer old.unpin()
	}

	// Phase 1: write the snapshot with no store locks held.
	tmpPath := s.path + compactSuffix
	var tmp *fault.File
	if err == nil {
		tmp, err = s.fsys.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	}
	if err != nil {
		s.fileMu.Lock()
		stopCapture()
		s.fileMu.Unlock()
		return fmt.Errorf("kvstore: compact: %w", err)
	}
	discard := func() {
		tmp.Close()
		s.fsys.Remove(tmpPath)
	}
	var newSize int64
	movedTo := map[string]int64{} // new offset of each referenced snapshot value
	writeSnapshot := func() error {
		var page, val []byte
		var voffs []int
		emit := func(op Op) error {
			page, voffs = appendRecordPage(page[:0], voffs[:0], []Op{op})
			if _, err := tmp.Write(page); err != nil {
				return fmt.Errorf("kvstore: compact write: %w", err)
			}
			newSize += int64(len(page))
			return nil
		}
		// Re-stamp the current epoch first: the rewrite drops every
		// historical record, and the epoch must survive reopen. (Replicated
		// leaders must not Compact at all — see repl.go — but the epoch of a
		// store that was once promoted and later runs standalone still has
		// to persist.)
		if e := s.epoch.Load(); e != 0 {
			var v [8]byte
			binary.LittleEndian.PutUint64(v[:], e)
			if err := emit(Op{Key: epochKey, Value: v[:]}); err != nil {
				return err
			}
		}
		for i := range snap {
			e := &snap[i]
			v := e.v
			if e.r.n != 0 {
				var err error
				if val, err = old.readValue(e.r, val); err != nil {
					return fmt.Errorf("kvstore: compact %q: %w", e.k, err)
				}
				v = val
			}
			recAt := newSize
			if err := emit(Op{Key: e.k, Value: v}); err != nil {
				return err
			}
			if e.r.n != 0 {
				movedTo[e.k] = recAt + int64(voffs[0])
			}
		}
		return nil
	}
	if err := writeSnapshot(); err != nil {
		discard()
		s.fileMu.Lock()
		stopCapture()
		s.fileMu.Unlock()
		return err
	}

	// Phase 2: freeze commits, flush the delta behind the snapshot, and
	// atomically swap the logs.
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	if s.closed.Load() {
		discard()
		stopCapture()
		return ErrClosed
	}
	snapshotLen := newSize
	if len(s.delta) > 0 {
		if _, err := tmp.Write(s.delta); err != nil {
			discard()
			stopCapture()
			return fmt.Errorf("kvstore: compact delta write: %w", err)
		}
		newSize += int64(len(s.delta))
	}
	stopCapture()
	if err := tmp.Sync(); err != nil {
		discard()
		return fmt.Errorf("kvstore: compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		s.fsys.Remove(tmpPath)
		return fmt.Errorf("kvstore: compact close: %w", err)
	}
	if err := s.fsys.Rename(tmpPath, s.path); err != nil {
		// The old log is still in place, complete, and still open: the store
		// keeps serving from it; surface the failed compaction.
		s.fsys.Remove(tmpPath)
		return fmt.Errorf("kvstore: swap compacted log: %w", err)
	}
	// From here on the compacted file is the log, whatever else fails.
	// Fsync the parent directory: without it a crash after the rename can
	// resurrect the old log, silently undoing the compaction.
	dirErr := s.fsys.SyncDir(filepath.Dir(s.path))
	f, err := s.fsys.OpenFile(s.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		// The old handle still reads every value at its old offset (an
		// unlinked file keeps its bytes), but an append through it would be
		// gone at the next Open: fail writes rather than lose them.
		s.ioErr = err
		return fmt.Errorf("kvstore: reopen after compact: %w", err)
	}
	prev := s.f
	s.mu.Lock()
	for k, r := range s.refs {
		if r.off >= deltaStart {
			r.off += snapshotLen - deltaStart
		} else {
			r.off = movedTo[k]
		}
		s.refs[k] = r
	}
	s.f = newLogFile(f)
	s.mu.Unlock()
	// The old file is unlinked and nothing in it is needed again, so the
	// error of closing it (now, or when the last reader in flight finishes)
	// changes nothing.
	_ = prev.unpin()
	s.size = newSize
	if dirErr != nil {
		return fmt.Errorf("kvstore: sync log directory: %w", dirErr)
	}
	// A completed compaction rewrote the log from live state, so any earlier
	// unrecoverable append failure is repaired.
	s.ioErr = nil
	return nil
}

// Close drains in-flight commits, fsyncs, and closes the store. The final
// fsync runs even when the store was opened with Sync: false, so a clean
// Close is always replay-equivalent: every acknowledged write is on disk.
// Further operations return ErrClosed.
func (s *Store) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// New writers now fail fast; wait for the active leader (if any) to
	// drain every waiter that was already enqueued.
	s.qmu.Lock()
	for s.leading || len(s.pending) > 0 {
		s.drained.Wait()
	}
	s.qmu.Unlock()
	s.forgetGauges()
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	if s.path == "" {
		return nil
	}
	// Dropping the store's pin closes the file, unless a referenced read is
	// still in flight — then the last reader out closes it.
	if err := s.f.Sync(); err != nil {
		s.f.unpin()
		return fmt.Errorf("kvstore: sync on close: %w", err)
	}
	return s.f.unpin()
}
