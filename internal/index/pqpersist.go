package index

// PQ side-file persistence for disk-resident segments (DESIGN.md §14). A
// trained PQ tier — codebook plus one byte of code per (row, subspace) — is
// derived state: it can always be rebuilt from the segment rows by
// retraining, but at atlas scale that retrain (sampled k-means plus a full
// encode pass) is the dominant open cost. So a PQ-mode segment carries a
// sibling file in the MLVF1 family:
//
//	<segment>.pq, all little-endian:
//	  header (64 bytes):
//	    magic u32 "MLPQ", version u32, metric u32, dim u32,
//	    m u32, reserved u32 (zero),
//	    count u64, idsCRC u64, dataCRC u64,  (the bound segment's header CRCs)
//	    bodyCRC u64,                         (CRC-64/ECMA of the body)
//	    headerCRC u64                        (CRC-64/ECMA of the 56 bytes before it)
//	  body: centroids (PQCentroids·dim float64 bits), codes (count·m bytes)
//
// The (count, idsCRC, dataCRC) triple binds the side file to exactly one
// segment build; a side file that does not match the segment just opened —
// or whose checksums fail, or that is missing entirely — is ignored and the
// tier retrains, so a torn or stale side file can never change answers.
// Writes go through the same crash-safe temp + fsync + rename + dir-fsync
// path as the segment itself, routed through the fault-injectable FS.

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"

	"modellake/internal/fault"
)

const (
	pqSideMagic      uint32 = 0x4d4c5051 // "MLPQ"
	pqSideVersion    uint32 = 1
	pqSideHeaderSize        = 64
)

// pqSidePath is the side-file location for a segment path.
func pqSidePath(segPath string) string { return segPath + ".pq" }

// writePQSideFile publishes the trained tier's codebook and the codes of
// the segment seg describes crash-safely next to it at segPath. The side file
// only ever describes segment rows (the in-RAM tail is rebuilt from the
// durable vec records on reopen anyway), so it is written exactly where the
// segment itself is (re)built: at build, open-retrain, and spill time — all
// points where every current row is, or is about to be, a segment row.
func writePQSideFile(fs *fault.FS, segPath string, seg *diskHeader, p *pqTier) error {
	cb := p.cb
	codes := p.codes[:int(seg.count)*cb.m]
	body := make([]byte, len(cb.cents)*8+len(codes))
	for i, x := range cb.cents {
		binary.LittleEndian.PutUint64(body[i*8:], math.Float64bits(x))
	}
	copy(body[len(cb.cents)*8:], codes)

	hdr := make([]byte, pqSideHeaderSize)
	binary.LittleEndian.PutUint32(hdr[0:], pqSideMagic)
	binary.LittleEndian.PutUint32(hdr[4:], pqSideVersion)
	binary.LittleEndian.PutUint32(hdr[8:], seg.metric)
	binary.LittleEndian.PutUint32(hdr[12:], seg.dim)
	binary.LittleEndian.PutUint32(hdr[16:], uint32(cb.m))
	binary.LittleEndian.PutUint64(hdr[24:], seg.count)
	binary.LittleEndian.PutUint64(hdr[32:], seg.idsCRC)
	binary.LittleEndian.PutUint64(hdr[40:], seg.dataCRC)
	binary.LittleEndian.PutUint64(hdr[48:], crc64.Checksum(body, crcTable))
	binary.LittleEndian.PutUint64(hdr[56:], crc64.Checksum(hdr[:56], crcTable))

	return publish(fs, pqSidePath(segPath), ".pq-*", func(tmp *fault.File) error {
		if _, err := tmp.Write(hdr); err != nil {
			return fmt.Errorf("index: pq side header: %w", err)
		}
		if _, err := tmp.Write(body); err != nil {
			return fmt.Errorf("index: pq side body: %w", err)
		}
		return nil
	})
}

// adoptPQSideFile tries to restore the PQ tier from the segment's side file,
// reporting whether it succeeded. Adoption requires a full match: header
// checksum, magic, version, metric, dimension, the subspace count the
// current config would train, and the exact (count, idsCRC, dataCRC) binding
// to the segment just opened, plus the body checksum over codebook and
// codes. Anything less reports false and the caller retrains.
func (c *core) adoptPQSideFile() bool {
	p := c.pq()
	if p == nil || c.segN < p.trainRows {
		return false
	}
	f, err := c.fs.OpenFile(pqSidePath(c.path), os.O_RDONLY, 0)
	if err != nil {
		return false
	}
	defer f.Close()
	hdr := make([]byte, pqSideHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return false
	}
	if binary.LittleEndian.Uint64(hdr[56:]) != crc64.Checksum(hdr[:56], crcTable) {
		return false
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != pqSideMagic ||
		binary.LittleEndian.Uint32(hdr[4:]) != pqSideVersion ||
		binary.LittleEndian.Uint32(hdr[8:]) != uint32(c.metric) ||
		binary.LittleEndian.Uint32(hdr[12:]) != uint32(c.dim) {
		return false
	}
	m := int(binary.LittleEndian.Uint32(hdr[16:]))
	bounds := pqBounds(c.dim, p.m)
	if m != len(bounds)-1 {
		return false
	}
	if binary.LittleEndian.Uint64(hdr[24:]) != uint64(c.segN) ||
		binary.LittleEndian.Uint64(hdr[32:]) != c.idsCRC ||
		binary.LittleEndian.Uint64(hdr[40:]) != c.dataCRC {
		return false
	}
	centsBytes := PQCentroids * c.dim * 8
	bodyLen := centsBytes + c.segN*m
	if st, err := f.Stat(); err != nil || st.Size() != int64(pqSideHeaderSize+bodyLen) {
		return false
	}
	body := make([]byte, bodyLen)
	if _, err := io.ReadFull(f, body); err != nil {
		return false
	}
	if binary.LittleEndian.Uint64(hdr[48:]) != crc64.Checksum(body, crcTable) {
		return false
	}
	cents := make([]float64, PQCentroids*c.dim)
	for i := range cents {
		cents[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:]))
	}
	p.cb = &pqCodebook{dim: c.dim, m: m, bounds: bounds, cents: cents}
	p.codes = append([]uint8(nil), body[centsBytes:]...)
	return true
}
