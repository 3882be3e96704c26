package kvstore

// WAL shipping. The append-only log already is a replication stream: every
// committed page is a run of self-delimiting, CRC32-checksummed records, and
// fsync-before-apply means everything at or below the durable size is safe
// to copy byte-for-byte. Replication therefore needs no second log format —
// a leader exposes its committed log as (offset, page) reads, and a follower
// appends the shipped pages to its own log and applies them through the same
// code path replay uses. A follower's log is always a byte-identical prefix
// of its leader's, so "where did I stop?" is just the follower's own commit
// offset, and a follower that restarts resumes shipping from its local log
// with no handshake state beyond that offset.
//
// Pull model: followers call ReadLogRange with their own offset; the leader
// never tracks who is following. CommitNotify lets a follower block until
// there may be new bytes instead of polling.
//
// Invariants:
//
//   - A follower store must receive mutations only via ApplyPage. Mixing in
//     direct Puts would keep the local store consistent but desynchronize
//     its offsets from the leader's, poisoning resume-from-own-offset.
//   - A replicated leader must not Compact: compaction rewrites the log in
//     place, so byte offsets stop addressing the records followers already
//     copied. A follower whose offset exceeds the (now shorter) log gets
//     ErrOffsetOutOfRange and must resync from scratch; an offset that
//     happens to still be in range would read different records, which the
//     per-record CRC cannot catch — hence the rule, not a runtime check.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Replication errors.
var (
	// ErrNoLog marks replication calls on an in-memory store, which has no
	// log to ship.
	ErrNoLog = errors.New("kvstore: in-memory store has no log")
	// ErrOffsetOutOfRange reports a follower offset beyond the leader's
	// durable log — the follower has diverged (e.g. the leader's log was
	// compacted or recreated) and must resync from offset 0 on a fresh store.
	ErrOffsetOutOfRange = errors.New("kvstore: replication offset out of range")
)

// CommitOffset returns the end offset of the last durably committed record:
// the point up to which the log is safe to ship. For an in-memory store it
// is always 0.
func (s *Store) CommitOffset() int64 {
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	return s.size
}

// CommitNotify returns a channel that receives (coalesced) after every
// committed page, including pages applied via ApplyPage. It is a wakeup
// hint, not a count: a follower should read its offset and call
// ReadLogRange after each receive, and still poll occasionally, since a
// notification concurrent with one already pending is dropped.
func (s *Store) CommitNotify() <-chan struct{} { return s.notify }

// notifyCommit posts a non-blocking wakeup to CommitNotify listeners.
func (s *Store) notifyCommit() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// ReadLogRange returns committed log bytes starting at offset from, trimmed
// to whole records and to about maxBytes. It returns (nil, nil) when from is
// exactly the durable end of the log — the caller is caught up. When the
// first record alone exceeds maxBytes it is returned whole, so progress is
// always possible. The returned page is freshly allocated and safe to retain.
func (s *Store) ReadLogRange(from int64, maxBytes int) ([]byte, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if s.path == "" {
		return nil, ErrNoLog
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	// fileMu is held for the whole read: the bytes below size are immutable
	// while it is held (appends extend, Compact swaps the file only under
	// fileMu), so the page is a consistent snapshot of committed records.
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	end := s.size
	if from == end {
		return nil, nil
	}
	if from < 0 || from > end {
		return nil, fmt.Errorf("%w: offset %d, log size %d", ErrOffsetOutOfRange, from, end)
	}
	want := end - from
	if int64(maxBytes) < want {
		want = int64(maxBytes)
	}
	buf := make([]byte, want)
	n, err := s.f.ReadAt(buf, from)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("kvstore: read log range: %w", err)
	}
	buf = buf[:n]
	// Trim to whole records. Every record below size is complete on disk, so
	// a header or payload running past the buffer only means the read window
	// cut it off — not a torn write.
	var off int64
	for int64(len(buf))-off >= headerSize {
		payloadLen := binary.LittleEndian.Uint32(buf[off : off+4])
		if payloadLen > maxRecordSize {
			return nil, fmt.Errorf("%w: record length %d at offset %d", ErrCorrupt, payloadLen, from+off)
		}
		recEnd := off + headerSize + int64(payloadLen)
		if from+recEnd > end {
			return nil, fmt.Errorf("%w: record at offset %d overruns durable size", ErrCorrupt, from+off)
		}
		if recEnd > int64(len(buf)) {
			if off == 0 {
				// First record alone exceeds maxBytes: fetch it whole.
				whole := make([]byte, recEnd)
				if _, err := s.f.ReadAt(whole, from); err != nil {
					return nil, fmt.Errorf("kvstore: read log range: %w", err)
				}
				return whole, nil
			}
			break
		}
		off = recEnd
	}
	return buf[:off], nil
}

// DecodePage parses a page of length-prefixed records (as produced by
// ReadLogRange) into one op list per record, fully validating record
// lengths and checksums before returning. Returned keys are copies but
// values alias page; callers that retain the ops must retain the page.
func DecodePage(page []byte) ([][]Op, error) {
	recs, _, err := decodePage(page)
	return recs, err
}

// decodePage is DecodePage that also returns, flat in op order across the
// records, the offset within page of every op's value (see applyOps).
func decodePage(page []byte) (recs [][]Op, voffs []int, err error) {
	off := 0
	for off < len(page) {
		if len(page)-off < headerSize {
			return nil, nil, fmt.Errorf("%w: truncated record header in page", ErrCorrupt)
		}
		payloadLen := int(binary.LittleEndian.Uint32(page[off : off+4]))
		wantCRC := binary.LittleEndian.Uint32(page[off+4 : off+8])
		if payloadLen > maxRecordSize || off+headerSize+payloadLen > len(page) {
			return nil, nil, fmt.Errorf("%w: record overruns page", ErrCorrupt)
		}
		payload := page[off+headerSize : off+headerSize+payloadLen]
		if crc32.ChecksumIEEE(payload) != wantCRC {
			return nil, nil, fmt.Errorf("%w: checksum mismatch in page at offset %d", ErrCorrupt, off)
		}
		var ops []Op
		ops, voffs, err = decodePayloadOps(payload, off+headerSize, voffs)
		if err != nil {
			return nil, nil, err
		}
		recs = append(recs, ops)
		off += headerSize + payloadLen
	}
	return recs, voffs, nil
}

// decodePayloadOps parses one CRC-verified record payload into its ops — the
// one decoder behind replay and replication, so a follower applies exactly
// what a reopen would. Returned values alias p. For every op it appends to
// voffs where the op's value starts, as base plus its offset within p — the
// decoder's half of what lets applyOps keep a large value as a reference
// (the entry is meaningless for deletes and epoch stamps, which have none).
func decodePayloadOps(p []byte, base int, voffs []int) ([]Op, []int, error) {
	if len(p) < 5 {
		return nil, nil, fmt.Errorf("%w: short payload", ErrCorrupt)
	}
	switch p[0] {
	case opPut, opDelete:
		keyLen := binary.LittleEndian.Uint32(p[1:5])
		if int64(keyLen) > int64(len(p)-5) {
			return nil, nil, fmt.Errorf("%w: key length overruns payload", ErrCorrupt)
		}
		key := string(p[5 : 5+keyLen])
		voffs = append(voffs, base+5+int(keyLen))
		if p[0] == opDelete {
			return []Op{{Key: key, Delete: true}}, voffs, nil
		}
		return []Op{{Key: key, Value: p[5+keyLen:]}}, voffs, nil
	case opBatch:
		return decodeBatch(p, base, voffs)
	case opEpoch:
		if len(p) != 1+8 {
			return nil, nil, fmt.Errorf("%w: epoch record length %d", ErrCorrupt, len(p))
		}
		// The sentinel op round-trips the stamp through applyOps, which
		// diverts it to the epoch register; index layers above ignore the
		// NUL-prefixed key.
		return []Op{{Key: epochKey, Value: p[1:9]}}, append(voffs, 0), nil
	default:
		return nil, nil, fmt.Errorf("%w: unknown op %d", ErrCorrupt, p[0])
	}
}

// ApplyPage appends a page of already-committed leader records to this
// store's log and applies them, advancing the commit offset by exactly
// len(page). The page is validated in full (framing, checksums, op
// decoding) before anything durable happens, so a corrupt ship leaves the
// follower untouched. Like commitBatch, the fsync (when the store is
// durable) gates the apply, and a failed append rolls the tail back to the
// last good boundary. Large values become references into this store's own
// log: it is a byte prefix of the leader's, so the offsets coincide, but
// nothing relies on that.
func (s *Store) ApplyPage(page []byte) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if len(page) == 0 {
		return nil
	}
	recs, voffs, err := decodePage(page)
	if err != nil {
		return err
	}
	if s.path == "" {
		// In-memory follower: no log of its own, just the applied state.
		s.mu.Lock()
		for _, ops := range recs {
			s.applyOps(ops, 0, nil)
		}
		s.mu.Unlock()
		s.notifyCommit()
		return nil
	}
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	if s.ioErr != nil {
		return fmt.Errorf("%w: %v", ErrFailed, s.ioErr)
	}
	if _, err := s.f.Write(page); err != nil {
		s.rollbackTail(err)
		return fmt.Errorf("kvstore: replicate append: %w", err)
	}
	if s.sync {
		if err := s.f.Sync(); err != nil {
			s.rollbackTail(err)
			return fmt.Errorf("kvstore: replicate fsync: %w", err)
		}
	}
	base := s.size
	s.size += int64(len(page))
	if s.compacting {
		s.delta = append(s.delta, page...)
	}
	s.mu.Lock()
	for _, ops := range recs {
		s.applyOps(ops, base, voffs[:len(ops)])
		voffs = voffs[len(ops):]
	}
	s.mu.Unlock()
	s.notifyCommit()
	return nil
}
