package index

// DiskFlat, the disk-resident flat index behind the atlas-scale read path
// (DESIGN.md §12): the core of flat.go with its full-precision rows in a
// fixed-stride, page-cache-friendly MLVF1 segment, pread back only to
// exact-rescore the shortlist the in-RAM ranking tier selects. This file is
// the segment format, its crash-safe publish, and the build / open / spill
// that move rows into it.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"

	"modellake/internal/fault"
)

// DiskFlat segment format, all little-endian:
//
//	header (64 bytes):
//	  magic u32, version u32, metric u32, dim u32,
//	  count u64, idsLen u64, dataOff u64,
//	  idsCRC u64, dataCRC u64,
//	  headerCRC u64  (CRC-64/ECMA of the 56 bytes before it)
//	ids section (idsLen bytes): per row, u32 id length + id bytes
//	zero padding up to dataOff (the next 4 KiB boundary)
//	rows: count fixed-stride rows of dim float64 bits
//
// The header is written twice during a build — zeros first, the real bytes
// only after every row landed — so a crash at any point leaves either a
// temp file (invisible: the segment is published by rename) or a file whose
// header, ids CRC, data CRC, or size fails validation. Open never serves a
// segment that does not verify end to end; callers treat any open error as
// "rebuild from the durable vectors".

const (
	diskFlatMagic   uint32 = 0x4d4c5646 // "MLVF"
	diskFlatVersion uint32 = 1
	diskHeaderSize         = 64
	diskAlign              = 4096
)

// ErrBadSegment marks a DiskFlat segment that failed validation on Open —
// torn, truncated, corrupted, or written under a different configuration.
var ErrBadSegment = errors.New("index: bad vector segment")

var crcTable = crc64.MakeTable(crc64.ECMA)

// encodeIDSection serializes ids into the segment's ids-section bytes.
func encodeIDSection(ids []string) []byte {
	n := 0
	for _, id := range ids {
		n += 4 + len(id)
	}
	buf := make([]byte, 0, n)
	var lenb [4]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint32(lenb[:], uint32(len(id)))
		buf = append(buf, lenb[:]...)
		buf = append(buf, id...)
	}
	return buf
}

// SegmentChecksum accumulates, one row at a time, the (idsCRC, dataCRC) pair
// a segment holding exactly the rows added so far would carry in its header.
// The lake uses it to decide whether an existing on-disk segment still
// matches the durable vector records it was derived from, without holding
// the rows or re-reading the segment. The zero value is an empty segment.
type SegmentChecksum struct {
	ids, data uint64
	buf       []byte
}

// Add folds the next row and its id into the checksums.
func (c *SegmentChecksum) Add(id string, row []float64) {
	c.buf = binary.LittleEndian.AppendUint32(c.buf[:0], uint32(len(id)))
	c.buf = append(c.buf, id...)
	c.ids = crc64.Update(c.ids, crcTable, c.buf)
	c.buf = c.buf[:0]
	for _, x := range row {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(x))
	}
	c.data = crc64.Update(c.data, crcTable, c.buf)
}

// Sums returns the checksums of the rows added so far.
func (c *SegmentChecksum) Sums() (idsCRC, dataCRC uint64) { return c.ids, c.data }

// SegmentChecksums computes the checksum pair of a segment holding exactly
// these ids and rows.
func SegmentChecksums(ids []string, row func(i int) []float64) (idsCRC, dataCRC uint64) {
	var c SegmentChecksum
	for i, id := range ids {
		c.Add(id, row(i))
	}
	return c.Sums()
}

// diskHeader is the fixed-size segment header.
type diskHeader struct {
	metric  uint32
	dim     uint32
	count   uint64
	idsLen  uint64
	dataOff uint64
	idsCRC  uint64
	dataCRC uint64
}

func (h *diskHeader) encode() []byte {
	buf := make([]byte, diskHeaderSize)
	binary.LittleEndian.PutUint32(buf[0:], diskFlatMagic)
	binary.LittleEndian.PutUint32(buf[4:], diskFlatVersion)
	binary.LittleEndian.PutUint32(buf[8:], h.metric)
	binary.LittleEndian.PutUint32(buf[12:], h.dim)
	binary.LittleEndian.PutUint64(buf[16:], h.count)
	binary.LittleEndian.PutUint64(buf[24:], h.idsLen)
	binary.LittleEndian.PutUint64(buf[32:], h.dataOff)
	binary.LittleEndian.PutUint64(buf[40:], h.idsCRC)
	binary.LittleEndian.PutUint64(buf[48:], h.dataCRC)
	binary.LittleEndian.PutUint64(buf[56:], crc64.Checksum(buf[:56], crcTable))
	return buf
}

func decodeDiskHeader(buf []byte) (*diskHeader, error) {
	if len(buf) != diskHeaderSize {
		return nil, fmt.Errorf("%w: short header", ErrBadSegment)
	}
	if got := binary.LittleEndian.Uint64(buf[56:]); got != crc64.Checksum(buf[:56], crcTable) {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrBadSegment)
	}
	if m := binary.LittleEndian.Uint32(buf[0:]); m != diskFlatMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrBadSegment, m)
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != diskFlatVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSegment, v)
	}
	h := &diskHeader{
		metric:  binary.LittleEndian.Uint32(buf[8:]),
		dim:     binary.LittleEndian.Uint32(buf[12:]),
		count:   binary.LittleEndian.Uint64(buf[16:]),
		idsLen:  binary.LittleEndian.Uint64(buf[24:]),
		dataOff: binary.LittleEndian.Uint64(buf[32:]),
		idsCRC:  binary.LittleEndian.Uint64(buf[40:]),
		dataCRC: binary.LittleEndian.Uint64(buf[48:]),
	}
	if h.dim > 1<<20 || h.count > 1<<31 || h.dataOff < diskHeaderSize || h.idsLen > h.dataOff-diskHeaderSize {
		return nil, fmt.Errorf("%w: implausible header (dim=%d count=%d)", ErrBadSegment, h.dim, h.count)
	}
	return h, nil
}

// DefaultSpillTailRows is the in-RAM tail bound a disk-resident index uses
// when its config leaves QuantConfig.SpillTailRows unset: after that many
// post-open Adds the tail is compacted into a fresh on-disk segment.
const DefaultSpillTailRows = 4096

// DiskFlat is the disk-resident exact index: the ranking tier (int8, or PQ
// when cfg.PQSubspaces > 0) and the row norms live in RAM, while the
// full-precision float64 rows stay in the on-disk segment and are pread back
// only to rescore the shortlist. Search results are bitwise identical to an
// in-RAM Flat over the same vectors whenever the true top-k survives the
// shortlist cut — and unconditionally when the shortlist covers the whole
// index.
//
// Rows added after Open/Build live in a bounded in-RAM full-precision tail
// that Add compacts into the segment at the spill threshold. The caller's
// durable store remains the source of truth: the segment is derived state,
// rebuilt on any damage. DiskFlat is safe for concurrent use.
type DiskFlat struct{ core }

func newDiskFlat(path string, fs *fault.FS, metric Metric, cfg QuantConfig) *DiskFlat {
	cfg = cfg.withDefaults()
	var tier rankTier = &quantTier{}
	if cfg.PQSubspaces > 0 {
		tier = newPQTier(cfg)
	}
	d := new(DiskFlat)
	d.init(metric, diskKind, diskKind, tier, cfg.RescoreFactor)
	d.spillRows, d.path, d.fs = cfg.SpillTailRows, path, fs
	return d
}

// publish writes a file crash-safely in the blob-store style: write fills a
// temp file in path's directory, which reaches path by fsync + rename +
// directory fsync. The temp file is removed on every failure, so a crash or
// error at any point leaves either nothing or the previous file at path.
// The directory must exist: a segment build creates it, and a side file is
// only ever written next to a published segment.
func publish(fs *fault.FS, path, tmpPattern string, write func(*fault.File) error) error {
	dir, name := filepath.Dir(path), filepath.Base(path)
	tmp, err := fs.CreateTemp(dir, tmpPattern)
	if err != nil {
		return fmt.Errorf("index: %s temp: %w", name, err)
	}
	tmpName := tmp.Name()
	err = write(tmp)
	if err == nil {
		if err = tmp.Sync(); err != nil {
			err = fmt.Errorf("index: %s sync: %w", name, err)
		}
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("index: %s close: %w", name, err)
	}
	if err := fs.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("index: %s publish: %w", name, err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("index: %s dir sync: %w", name, err)
	}
	return nil
}

// writeSegment publishes a segment holding ids and the dim-wide rows row(i)
// yields — called once per i, in order, streamed one at a time — and returns
// its header. The header slot is written as zeros first and the real bytes
// only after every row landed, so until then the file is self-evidently
// invalid. All IO routes through fs, so the crash-window sweep in the fault
// package applies; a nil fs uses the real filesystem.
func writeSegment(fs *fault.FS, path string, metric Metric, dim int, ids []string, row func(i int) ([]float64, error)) (*diskHeader, error) {
	idsSec := encodeIDSection(ids)
	dataOff := int64(diskHeaderSize + len(idsSec))
	if rem := dataOff % diskAlign; rem != 0 {
		dataOff += diskAlign - rem
	}
	hdr := &diskHeader{
		metric: uint32(metric), dim: uint32(dim),
		count: uint64(len(ids)), idsLen: uint64(len(idsSec)),
		dataOff: uint64(dataOff),
		idsCRC:  crc64.Checksum(idsSec, crcTable),
	}
	if err := fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("index: segment dir: %w", err)
	}
	err := publish(fs, path, ".seg-*", func(tmp *fault.File) error {
		prefix := make([]byte, dataOff)
		copy(prefix[diskHeaderSize:], idsSec)
		if _, err := tmp.Write(prefix); err != nil {
			return fmt.Errorf("index: segment prefix: %w", err)
		}
		// Stream the rows through a chunk buffer, folding each into the
		// data CRC as it goes.
		chunk := make([]byte, 0, 1<<20)
		flush := func() error {
			hdr.dataCRC = crc64.Update(hdr.dataCRC, crcTable, chunk)
			if _, err := tmp.Write(chunk); err != nil {
				return fmt.Errorf("index: segment rows: %w", err)
			}
			chunk = chunk[:0]
			return nil
		}
		for i := range ids {
			r, err := row(i)
			if err != nil {
				return err
			}
			for _, x := range r {
				chunk = binary.LittleEndian.AppendUint64(chunk, math.Float64bits(x))
			}
			if len(chunk)+dim*8 > cap(chunk) {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		if len(chunk) > 0 {
			if err := flush(); err != nil {
				return err
			}
		}
		if _, err := tmp.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("index: segment header seek: %w", err)
		}
		if _, err := tmp.Write(hdr.encode()); err != nil {
			return fmt.Errorf("index: segment header: %w", err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return hdr, nil
}

// attach points the core at the validated or freshly published segment f
// described by hdr.
func (c *core) attach(f *fault.File, hdr *diskHeader) {
	c.f = f
	c.segN = int(hdr.count)
	c.dataOff = int64(hdr.dataOff)
	c.idsCRC, c.dataCRC = hdr.idsCRC, hdr.dataCRC
}

// BuildDiskFlat writes a segment holding the given rows to path (see
// writeSegment for the crash-safety argument) and returns the open index
// over it. Norms and the in-RAM ranking tier are built during the write; a
// PQ-mode build (cfg.PQSubspaces > 0) with enough rows then trains its
// codebook from the published rows and persists codebook+codes in a
// crash-safe side file next to the segment. A build that cannot publish its
// side file fails whole, so "reported success" covers the side file too.
func BuildDiskFlat(path string, fs *fault.FS, metric Metric, cfg QuantConfig, ids []string, row func(i int) []float64) (*DiskFlat, error) {
	d := newDiskFlat(path, fs, metric, cfg)
	if len(ids) > 0 {
		d.dim = len(row(0))
	}
	hdr, err := writeSegment(fs, path, metric, d.dim, ids, func(i int) ([]float64, error) {
		r := row(i)
		if err := validateVector(r, d.dim); err != nil {
			return nil, fmt.Errorf("index: segment row %d: %w", i, err)
		}
		if err := d.addID(ids[i]); err != nil {
			return nil, err
		}
		d.absorb(r)
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("index: segment reopen: %w", err)
	}
	d.attach(f, hdr)
	if err := d.trainPQ(); err != nil {
		f.Close()
		return nil, err
	}
	if p := d.pq(); p.ready() {
		if err := writePQSideFile(fs, path, hdr, p); err != nil {
			f.Close()
			return nil, err
		}
	}
	return d, nil
}

// OpenDiskFlat opens and fully validates a segment previously written by
// BuildDiskFlat: header checksum, configuration match, exact file size, ids
// checksum, and a sequential pass over every row that verifies the data
// checksum while rebuilding the in-RAM ranking tier and norms. Any
// mismatch — torn header, truncated rows, flipped bytes, different metric —
// fails with an error wrapping ErrBadSegment; a validated open keeps the
// file handle for pread rescore windows.
func OpenDiskFlat(path string, fs *fault.FS, metric Metric, cfg QuantConfig) (*DiskFlat, error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("index: open segment: %w", err)
	}
	d := newDiskFlat(path, fs, metric, cfg)
	if err := d.load(f); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

func (d *DiskFlat) load(f *fault.File) error {
	hbuf := make([]byte, diskHeaderSize)
	if _, err := io.ReadFull(f, hbuf); err != nil {
		return fmt.Errorf("%w: header: %v", ErrBadSegment, err)
	}
	hdr, err := decodeDiskHeader(hbuf)
	if err != nil {
		return err
	}
	if Metric(hdr.metric) != d.metric {
		return fmt.Errorf("%w: metric %d != configured %d", ErrBadSegment, hdr.metric, d.metric)
	}
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("index: segment stat: %w", err)
	}
	wantSize := int64(hdr.dataOff) + int64(hdr.count)*int64(hdr.dim)*8
	if st.Size() != wantSize {
		return fmt.Errorf("%w: size %d != %d", ErrBadSegment, st.Size(), wantSize)
	}

	idsSec := make([]byte, hdr.idsLen)
	if _, err := io.ReadFull(f, idsSec); err != nil {
		return fmt.Errorf("%w: ids section: %v", ErrBadSegment, err)
	}
	if got := crc64.Checksum(idsSec, crcTable); got != hdr.idsCRC {
		return fmt.Errorf("%w: ids checksum mismatch", ErrBadSegment)
	}
	d.dim = int(hdr.dim)
	d.reserve(int(hdr.count), d.dim)
	for off := 0; off < len(idsSec); {
		if off+4 > len(idsSec) {
			return fmt.Errorf("%w: truncated id length", ErrBadSegment)
		}
		n := int(binary.LittleEndian.Uint32(idsSec[off:]))
		off += 4
		if n < 0 || off+n > len(idsSec) {
			return fmt.Errorf("%w: truncated id", ErrBadSegment)
		}
		if err := d.addID(string(idsSec[off : off+n])); err != nil {
			return fmt.Errorf("%w: %v", ErrBadSegment, err)
		}
		off += n
	}
	if uint64(len(d.ids)) != hdr.count {
		return fmt.Errorf("%w: %d ids != count %d", ErrBadSegment, len(d.ids), hdr.count)
	}

	// The alignment pad between the ids section and the rows is written as
	// zeros and covered by no checksum, so verify it byte-for-byte: a
	// segment is valid only if it is exactly what the build wrote.
	pad := make([]byte, int64(hdr.dataOff)-diskHeaderSize-int64(hdr.idsLen))
	if _, err := io.ReadFull(f, pad); err != nil {
		return fmt.Errorf("%w: padding: %v", ErrBadSegment, err)
	}
	for _, b := range pad {
		if b != 0 {
			return fmt.Errorf("%w: nonzero padding byte", ErrBadSegment)
		}
	}

	// One sequential pass over the rows: verify the data checksum while
	// building the ranking tier and norms.
	br := bufio.NewReaderSize(f, 1<<20)
	rowBuf := make([]byte, d.dim*8)
	row := make([]float64, d.dim)
	var dataCRC uint64
	for i := 0; i < int(hdr.count); i++ {
		if _, err := io.ReadFull(br, rowBuf); err != nil {
			return fmt.Errorf("%w: row %d: %v", ErrBadSegment, i, err)
		}
		dataCRC = crc64.Update(dataCRC, crcTable, rowBuf)
		for j := range row {
			row[j] = math.Float64frombits(binary.LittleEndian.Uint64(rowBuf[j*8:]))
		}
		if err := validateVector(row, d.dim); err != nil {
			return fmt.Errorf("%w: row %d: %v", ErrBadSegment, i, err)
		}
		d.absorb(row)
	}
	if dataCRC != hdr.dataCRC {
		return fmt.Errorf("%w: data checksum mismatch", ErrBadSegment)
	}
	d.attach(f, hdr)

	// PQ adoption: the side file is pure derived acceleration, never
	// trusted further than its checksums. A valid one (bound to exactly
	// this segment's count and CRCs) restores codebook and codes without
	// retraining; anything else — missing, torn, stale, differently
	// configured — retrains from the verified rows, then republishes the
	// side file on a best-effort basis (an open must not fail because an
	// acceleration file could not be rewritten).
	if p := d.pq(); p != nil && !d.adoptPQSideFile() {
		if err := d.trainPQ(); err != nil {
			return err
		}
		if p.ready() {
			_ = writePQSideFile(d.fs, d.path, hdr, p)
		}
	}
	return nil
}

// Checksums returns the segment's stored (ids, data) checksums, the pair
// SegmentChecksums over the same ids/rows reproduces. Rows added after open
// (the in-RAM tail) are not reflected.
func (d *DiskFlat) Checksums() (idsCRC, dataCRC uint64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.idsCRC, d.dataCRC
}

// SegmentLen returns the number of rows in the on-disk segment (excluding
// the in-RAM tail).
func (d *DiskFlat) SegmentLen() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.segN
}

// Close releases the segment file handle. Searches after Close fail.
func (d *DiskFlat) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.f.Close()
}

// spill compacts a full in-RAM tail into the on-disk segment: the current
// rows — segment preads followed by the tail — stream through the same
// crash-safe publish as the original build, and a trained PQ tier rebinds
// its side file to the new segment's checksums (its codes already cover
// every row, so nothing retrains). Only then does the core swap to the new
// file and drop the tail; norms, ids and the tier are untouched because
// compaction only moves where the full-precision bytes live. A failure at
// any point leaves the index serving from the previous segment — still
// readable through the open handle's inode — plus the tail. Called with
// c.mu held.
func (c *core) spill() error {
	if c.spillRows <= 0 || c.f == nil || len(c.rows) < c.spillRows*c.dim {
		return nil
	}
	sc := c.scratch.Get().(*scratch)
	defer c.scratch.Put(sc)
	hdr, err := writeSegment(c.fs, c.path, c.metric, c.dim, c.ids, func(i int) ([]float64, error) {
		return c.rowAt(sc, i)
	})
	if err != nil {
		return err
	}
	f, err := c.fs.OpenFile(c.path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("index: segment reopen: %w", err)
	}
	if p := c.pq(); p.ready() {
		if err := writePQSideFile(c.fs, c.path, hdr, p); err != nil {
			f.Close()
			return err
		}
	}
	old := c.f
	c.attach(f, hdr)
	c.rows = nil
	old.Close()
	return nil
}
