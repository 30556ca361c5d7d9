// Package wal is the write-ahead log behind live ingest: every append
// is made durable — fsync'd to the log — before it is acknowledged, so
// a crash between the ack and the next store checkpoint loses nothing.
// On restart the serving layer loads the last checkpointed store and
// index artifacts, then Replays the log to roll the store forward; the
// segmented index re-extracts the replayed windows into its delta,
// which restores the exact pre-crash search surface.
//
// The log carries a LOGICAL offset space that survives truncation: the
// file starts with a small header naming the logical offset of its
// first record byte, and every replayed Record reports the logical
// offset just past itself (Record.End).  A checkpoint remembers the
// log's Offset() at capture time; recovery replays only records with
// End past that mark, and TruncateThrough physically drops the already
// checkpointed prefix without renumbering what remains.  Because the
// skip is offset-driven, truncation is purely a space optimization — a
// crash anywhere between "checkpoint durable" and "prefix dropped"
// replays the same records either way, never dropping or double-
// applying an acked append.
//
// The format after the header is a flat record stream.  Each record is
//
//	u32 payload length | payload | u32 CRC32C(payload)
//
// little-endian, with the payload's first byte a record kind:
//
//	1  new sequence: u32 name length, name bytes, u64 count, count float64s
//	2  append:       u64 sequence id,             u64 count, count float64s
//
// Replay stops cleanly at the first torn or corrupt record (the tail
// a crash mid-write leaves behind) and reports how many bytes of the
// log were valid, so the caller can truncate to that offset and keep
// appending.  Headerless files written by earlier builds load as
// logical offset 0.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// record kinds.
const (
	kindNewSequence = 1
	kindAppend      = 2
)

// maxRecord bounds one record's length claim (1 GiB) so a corrupt
// length prefix cannot drive a huge allocation.
const maxRecord = 1 << 30

// The header is magic (identifier + version byte), the u64 logical
// offset of the first record byte, and a CRC32C over both.  It is
// written only when the stream before it is empty — at creation, at
// Reset, and into the freshly built file TruncateThrough renames into
// place — so a torn header can only predate the first acked append.
var magic = []byte("SSWAL\x01")

const headerLen = 6 + 8 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// renameFile is swapped by crash-injection tests to simulate a kill
// between building the truncated log and publishing it.
var renameFile = os.Rename

// ErrPoisoned reports a log that refuses appends because an earlier
// append's write or fsync failed (see Log.AppendValues).
var ErrPoisoned = errors.New("wal: log poisoned by a failed append")

// SyncWriter is the append path's view of the log file: the file
// itself, or a fault-injecting wrapper around it (InjectFault).
type SyncWriter interface {
	io.Writer
	Sync() error
}

// Log is an append-only write-ahead log backed by one file.  Append
// methods are not internally locked — the serving layer already
// serializes appends through the segmented index's writer lock.
type Log struct {
	path string
	f    *os.File
	out  SyncWriter
	base int64 // logical offset of the record stream's first byte
	hdr  int64 // header length in this file (0 for legacy headerless logs)
	pos  int64 // physical record-stream length (bytes past the header)
	// poison, once set, is returned by every later append, truncation
	// and reset: the log failed stop.
	poison error
}

// Open opens (creating if needed) the log at path and positions
// appends after the last valid record, truncating any torn tail left
// by a crash.  The caller replays the returned records into its store
// before appending new ones; each record carries the logical offset
// just past itself so a checkpoint-aware caller can skip the prefix it
// has already applied.
func Open(path string) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	base, hdr, err := readHeader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	recs, valid, err := replay(f, hdr, base)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(hdr + valid); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(hdr+valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Log{path: path, f: f, out: f, base: base, hdr: hdr, pos: valid}, recs, nil
}

// readHeader classifies the file's start: fresh (write a new header),
// versioned (decode the base offset), or legacy headerless (offset 0).
// A file that begins with our magic but whose header is torn or
// corrupt is reset to empty: the header is only ever written before
// the first record of its stream, so nothing acked can be behind it.
func readHeader(f *os.File) (base, hdr int64, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	if st.Size() == 0 {
		if err := writeHeader(f, 0); err != nil {
			return 0, 0, err
		}
		return 0, headerLen, nil
	}
	buf := make([]byte, headerLen)
	n, rerr := f.ReadAt(buf, 0)
	if rerr != nil && rerr != io.EOF {
		return 0, 0, rerr
	}
	if n < len(magic) || !bytes.Equal(buf[:len(magic)], magic) {
		return 0, 0, nil // legacy headerless record stream
	}
	if n == headerLen {
		want := binary.LittleEndian.Uint32(buf[14:])
		got := crc32.Checksum(buf[:14], castagnoli)
		off := binary.LittleEndian.Uint64(buf[6:])
		if want == got && off <= math.MaxInt64 {
			return int64(off), headerLen, nil
		}
	}
	// Ours, but damaged before the record stream even starts: only a
	// crash during creation can do that, so the stream holds nothing.
	if err := f.Truncate(0); err != nil {
		return 0, 0, err
	}
	if err := writeHeader(f, 0); err != nil {
		return 0, 0, err
	}
	return 0, headerLen, nil
}

// writeHeader stamps an empty file with the header for the given base
// offset and fsyncs, so an acked append always sits behind a durable
// header.
func writeHeader(f *os.File, base int64) error {
	buf := make([]byte, headerLen)
	copy(buf, magic)
	binary.LittleEndian.PutUint64(buf[6:], uint64(base))
	binary.LittleEndian.PutUint32(buf[14:], crc32.Checksum(buf[:14], castagnoli))
	if _, err := f.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("wal: header: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// Record is one replayed mutation.
type Record struct {
	// Name is set (and Seq is -1) for a new-sequence record; Seq is
	// set for an append record.
	Name   string
	Seq    int
	Values []float64
	// End is the logical offset just past this record.  A record is
	// covered by a checkpoint taken at offset c iff End <= c.
	End int64
}

// AppendValues logs an append to an existing sequence and fsyncs.  A
// failed write or fsync poisons the log: see poisonWith.
func (l *Log) AppendValues(seq int, values []float64) error {
	payload := make([]byte, 1+8+8+8*len(values))
	payload[0] = kindAppend
	binary.LittleEndian.PutUint64(payload[1:], uint64(seq))
	putValues(payload[9:], values)
	return l.append(payload)
}

// AppendSequence logs the creation of a new sequence and fsyncs.
func (l *Log) AppendSequence(name string, values []float64) error {
	payload := make([]byte, 1+4+len(name)+8+8*len(values))
	payload[0] = kindNewSequence
	binary.LittleEndian.PutUint32(payload[1:], uint32(len(name)))
	copy(payload[5:], name)
	putValues(payload[5+len(name):], values)
	return l.append(payload)
}

func putValues(dst []byte, values []float64) {
	binary.LittleEndian.PutUint64(dst, uint64(len(values)))
	for i, v := range values {
		binary.LittleEndian.PutUint64(dst[8+8*i:], math.Float64bits(v))
	}
}

func (l *Log) append(payload []byte) error {
	if l.poison != nil {
		return l.poison
	}
	buf := make([]byte, 4+len(payload)+4)
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	binary.LittleEndian.PutUint32(buf[4+len(payload):], crc32.Checksum(payload, castagnoli))
	if _, err := l.out.Write(buf); err != nil {
		return l.poisonWith(fmt.Errorf("wal: append: %w", err))
	}
	syncStart := time.Now()
	if err := l.out.Sync(); err != nil {
		return l.poisonWith(fmt.Errorf("wal: sync: %w", err))
	}
	recordAppend(len(buf), time.Since(syncStart))
	l.pos += int64(len(buf))
	return nil
}

// Poisoned returns the cause that poisoned the log — ErrPoisoned
// wrapping the failed write or fsync — or nil while it accepts appends.
func (l *Log) Poisoned() error { return l.poison }

// InjectFault routes every later append through wrap(file): the seam a
// fault-injection test hands faulty.FailingFile to.
func (l *Log) InjectFault(wrap func(SyncWriter) SyncWriter) { l.out = wrap(l.f) }

// poisonWith fails the log stop after an append's write or fsync
// failed, and returns the error every later call gets.  A failed write
// may have left part of the record in the file, where the next append
// would land behind it and replay would stop short of both; after a
// failed fsync the kernel may already have dropped the dirty pages, and
// a retried fsync on the same descriptor can report success for data
// that never reached the disk.  So the descriptor is closed and not
// used again, the file is cut back to the last acked record through a
// freshly opened handle (fsynced), and nothing more is appended until
// the log is reopened.
func (l *Log) poisonWith(cause error) error {
	l.f.Close()
	l.poison = fmt.Errorf("%w: %w", ErrPoisoned, cause)
	f, err := os.OpenFile(l.path, os.O_RDWR, 0)
	if err == nil {
		err = f.Truncate(l.hdr + l.pos)
		if serr := f.Sync(); err == nil {
			err = serr
		}
		f.Close()
	}
	if err != nil {
		l.poison = fmt.Errorf("%w (cutting back to offset %d also failed: %v)", l.poison, l.base+l.pos, err)
	}
	return l.poison
}

// Size returns the current physical record-stream length in bytes (the
// durable backlog since the last checkpoint truncation).
func (l *Log) Size() int64 { return l.pos }

// Base returns the logical offset of the log's first retained record
// byte.  Zero means the full ingest history is still present — the
// only state in which a from-scratch replay reconstructs everything.
func (l *Log) Base() int64 { return l.base }

// Offset returns the logical end offset of the log: everything acked
// so far lies at offsets below it.  A checkpoint captures this value;
// recovery skips replayed records with End at or below the captured
// mark.
func (l *Log) Offset() int64 { return l.base + l.pos }

// TruncateThrough physically drops every record whose logical End is
// at or below offset.  Call it only after a checkpoint covering that
// offset is durable — the dropped prefix's only other copy is the
// checkpoint artifact.
//
// The rewrite is crash-safe: the surviving tail is copied into a fresh
// file (new header naming its logical base), fsync'd, and renamed over
// the log.  A crash before the rename leaves the old log intact; the
// offset-driven replay skip makes the longer prefix harmless.
func (l *Log) TruncateThrough(offset int64) error {
	if l.poison != nil {
		return l.poison
	}
	if offset <= l.base {
		return nil // nothing retained is that old
	}
	if offset > l.base+l.pos {
		return fmt.Errorf("wal: truncate through %d beyond log end %d", offset, l.base+l.pos)
	}
	cut, err := l.findCut(offset)
	if err != nil {
		return err
	}
	if cut == 0 {
		return nil
	}
	truncStart := time.Now()
	newBase := l.base + cut

	tmp := l.path + ".trunc"
	tf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	defer os.Remove(tmp) // no-op after a successful rename
	if err := writeHeader(tf, newBase); err != nil {
		tf.Close()
		return err
	}
	if _, err := tf.Seek(headerLen, io.SeekStart); err != nil {
		tf.Close()
		return err
	}
	tail := io.NewSectionReader(l.f, l.hdr+cut, l.pos-cut)
	if _, err := io.Copy(tf, tail); err != nil {
		tf.Close()
		return fmt.Errorf("wal: truncate copy: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("wal: truncate sync: %w", err)
	}
	if err := renameFile(tmp, l.path); err != nil {
		tf.Close()
		return fmt.Errorf("wal: truncate publish: %w", err)
	}
	if err := syncDir(l.path); err != nil {
		tf.Close()
		return err
	}
	if _, err := tf.Seek(headerLen+(l.pos-cut), io.SeekStart); err != nil {
		tf.Close()
		return err
	}
	l.f.Close()
	l.f, l.out = tf, tf
	l.base = newBase
	l.hdr = headerLen
	l.pos -= cut
	recordTruncate(time.Since(truncStart))
	return nil
}

// findCut walks the validated record frames and returns the physical
// stream position of the end of the last record whose logical End is
// at or below offset.  Frames up to pos were CRC-checked at Open or
// written by this process, so only the length prefixes are read.
func (l *Log) findCut(offset int64) (int64, error) {
	var cut, at int64
	var head [4]byte
	for at < l.pos {
		if _, err := l.f.ReadAt(head[:], l.hdr+at); err != nil {
			return 0, fmt.Errorf("wal: truncate scan: %w", err)
		}
		length := int64(binary.LittleEndian.Uint32(head[:]))
		end := at + 4 + length + 4
		if end > l.pos {
			return 0, fmt.Errorf("wal: truncate scan: frame at %d overruns log end", at)
		}
		if l.base+end > offset {
			break
		}
		at = end
		cut = end
	}
	return cut, nil
}

func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("wal: dir sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: dir sync: %w", err)
	}
	return nil
}

// Reset truncates the log to empty while preserving the logical offset
// space (the new base is the old end).  Call it only after the store
// has been checkpointed durably — the log is the only other copy of
// everything it holds.
func (l *Log) Reset() error {
	if l.poison != nil {
		return l.poison
	}
	newBase := l.base + l.pos
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if err := writeHeader(l.f, newBase); err != nil {
		return err
	}
	if _, err := l.f.Seek(headerLen, io.SeekStart); err != nil {
		return err
	}
	l.base = newBase
	l.hdr = headerLen
	l.pos = 0
	return nil
}

// Close closes the log file (a poisoned log closed it already).
func (l *Log) Close() error {
	if l.poison != nil {
		return nil
	}
	return l.f.Close()
}

// replay scans r from the end of the header, decoding records until
// EOF or the first invalid record, and returns the decoded records
// plus the stream position of the end of the last valid record.
func replay(r io.ReadSeeker, hdr, base int64) ([]Record, int64, error) {
	if _, err := r.Seek(hdr, io.SeekStart); err != nil {
		return nil, 0, err
	}
	var recs []Record
	var valid int64
	var head [4]byte
	for {
		if _, err := io.ReadFull(r, head[:]); err != nil {
			return recs, valid, nil // clean EOF or torn length prefix
		}
		length := binary.LittleEndian.Uint32(head[:])
		if length < 9 || length > maxRecord {
			return recs, valid, nil
		}
		buf := make([]byte, int(length)+4)
		if _, err := io.ReadFull(r, buf); err != nil {
			return recs, valid, nil // torn record
		}
		payload := buf[:length]
		want := binary.LittleEndian.Uint32(buf[length:])
		if crc32.Checksum(payload, castagnoli) != want {
			return recs, valid, nil // corrupt record
		}
		rec, ok := decode(payload)
		if !ok {
			return recs, valid, nil
		}
		valid += int64(4 + len(buf))
		rec.End = base + valid
		recs = append(recs, rec)
	}
}

func decode(payload []byte) (Record, bool) {
	switch payload[0] {
	case kindNewSequence:
		if len(payload) < 5 {
			return Record{}, false
		}
		nameLen := int(binary.LittleEndian.Uint32(payload[1:]))
		if 5+nameLen+8 > len(payload) {
			return Record{}, false
		}
		name := string(payload[5 : 5+nameLen])
		values, ok := decodeValues(payload[5+nameLen:])
		if !ok {
			return Record{}, false
		}
		return Record{Name: name, Seq: -1, Values: values}, true
	case kindAppend:
		if len(payload) < 17 {
			return Record{}, false
		}
		seq := binary.LittleEndian.Uint64(payload[1:])
		if seq > math.MaxInt32 {
			return Record{}, false
		}
		values, ok := decodeValues(payload[9:])
		if !ok {
			return Record{}, false
		}
		return Record{Seq: int(seq), Values: values}, true
	default:
		return Record{}, false
	}
}

func decodeValues(b []byte) ([]float64, bool) {
	if len(b) < 8 {
		return nil, false
	}
	count := binary.LittleEndian.Uint64(b)
	if uint64(len(b)-8) != 8*count {
		return nil, false
	}
	values := make([]float64, count)
	for i := range values {
		values[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8+8*i:]))
	}
	return values, true
}
