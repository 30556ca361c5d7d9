// Package ckpt is the durable-ingest checkpoint artifact: one file
// capturing a consistent (store, segmented index, WAL offset) triple so
// a restart recovers by loading the artifact and replaying only the WAL
// tail past its offset — cost bounded by the tail, not the full ingest
// history.
//
// The SSCKP v1 format is binio-framed: a meta section (generation, WAL
// offset, creation time), the store in the SSTOR format, the frozen
// segments in the SSSEG format, and a whole-file trailer.  Every byte
// is CRC-protected, so a torn or bit-flipped artifact is DETECTED at
// load and recovery falls back — never silently serves damaged data.
//
// Install publishes with a retain-2 rotation: the previous checkpoint
// survives as <base>.prev until the next one lands.  Paired with the
// caller's lag-one WAL truncation (truncate only through the PREVIOUS
// checkpoint's offset), corruption of the newest artifact always leaves
// a recoverable older artifact whose WAL tail is still on disk.
// Recover walks that chain — current, then previous — and reports every
// rejected artifact as a typed Warning so the fallback is loud.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"scaleshift/internal/binio"
	"scaleshift/internal/core"
	"scaleshift/internal/store"
)

// ckptMagic identifies the checkpoint artifact format, version 1.
var ckptMagic = []byte("SSCKP\x01")

// ckptVersions lists the format versions Read accepts.
var ckptVersions = []byte{1}

// maxSection bounds one embedded section (the store or segment bytes);
// a corrupt length claim beyond it is rejected before any allocation.
const maxSection = 1 << 40

const metaLen = 3 * 8

// renameFile is swapped by crash-injection tests to simulate a kill
// between the rotation's rename steps.
var renameFile = os.Rename

// ErrNoCheckpoint reports that no checkpoint artifact could be loaded:
// none exists (first boot) or every candidate was rejected (see the
// Warnings returned alongside).  The caller decides whether a full WAL
// replay can substitute — only when the WAL still holds its complete
// history from logical offset zero.
var ErrNoCheckpoint = errors.New("ckpt: no loadable checkpoint artifact")

// Meta is the checkpoint's identity: which generation it is, how much
// of the WAL's logical offset space it covers, and when it was taken.
type Meta struct {
	// Generation increments with every checkpoint taken by a server
	// lineage; recovery resumes the counter.
	Generation int64
	// WALOffset is the log's logical Offset() at capture: every record
	// with End at or below it is contained in the artifact, and recovery
	// replays only records past it.
	WALOffset int64
	// CreatedAt stamps the capture time (checkpoint age gauges).
	CreatedAt time.Time
}

// Paths names the retain-2 artifact pair for a base path.
type Paths struct {
	// Cur is the newest checkpoint (the base path itself).
	Cur string
	// Prev is the previous checkpoint, kept until the next Install.
	Prev string
}

// PathsFor returns the artifact pair rooted at base.
func PathsFor(base string) Paths {
	return Paths{Cur: base, Prev: base + ".prev"}
}

// Write serializes one checkpoint to w: meta, then the store bytes
// produced by writeStore (store/Snapshot WriteBinary), then the segment
// bytes produced by writeSegments (core SegmentWriter).
//
// Neither artifact is staged in memory.  A section's length precedes
// its bytes, so each writer runs twice — once into a counter, once into
// the frame — and must write the same bytes both times; the two above
// do, serializing a pinned snapshot and a pinned manifest.
func Write(w io.Writer, meta Meta, writeStore, writeSegments func(io.Writer) error) error {
	head := make([]byte, metaLen)
	binary.LittleEndian.PutUint64(head[0:], uint64(meta.Generation))
	binary.LittleEndian.PutUint64(head[8:], uint64(meta.WALOffset))
	binary.LittleEndian.PutUint64(head[16:], uint64(meta.CreatedAt.UnixNano()))

	bw := binio.NewWriter(w)
	bw.Magic(ckptMagic)
	bw.Section(head)
	if err := streamArtifact(bw, writeStore); err != nil {
		return fmt.Errorf("ckpt: store section: %w", err)
	}
	if err := streamArtifact(bw, writeSegments); err != nil {
		return fmt.Errorf("ckpt: segments section: %w", err)
	}
	return bw.Close()
}

// streamArtifact frames what write produces as the next section of bw.
func streamArtifact(bw *binio.Writer, write func(io.Writer) error) error {
	var n byteCounter
	if err := write(&n); err != nil {
		return err
	}
	bw.StreamSection(int64(n), write)
	return nil
}

// byteCounter counts the bytes written to it.
type byteCounter int64

func (n *byteCounter) Write(p []byte) (int, error) {
	*n += byteCounter(len(p))
	return len(p), nil
}

// Read parses and fully validates a checkpoint written by Write,
// returning its meta, the recovered store, and the segmented index
// rebuilt over it.  Any framing, checksum, or structural failure is a
// typed error; nothing partially loaded is ever returned.
func Read(r io.Reader) (Meta, *store.Store, *core.SegmentedIndex, error) {
	br := binio.NewReader(r)
	if _, err := br.MagicVersions(ckptMagic, ckptVersions...); err != nil {
		return Meta{}, nil, nil, fmt.Errorf("ckpt: reading magic: %w", err)
	}
	head, err := br.Section(metaLen)
	if err != nil {
		return Meta{}, nil, nil, fmt.Errorf("ckpt: meta section: %w", err)
	}
	if len(head) != metaLen {
		return Meta{}, nil, nil, fmt.Errorf("ckpt: meta section is %d bytes, want %d: %w", len(head), metaLen, binio.ErrChecksum)
	}
	meta := Meta{
		Generation: int64(binary.LittleEndian.Uint64(head[0:])),
		WALOffset:  int64(binary.LittleEndian.Uint64(head[8:])),
		CreatedAt:  time.Unix(0, int64(binary.LittleEndian.Uint64(head[16:]))),
	}
	if meta.Generation < 0 || meta.WALOffset < 0 {
		return Meta{}, nil, nil, fmt.Errorf("ckpt: implausible meta (generation %d, wal offset %d): %w",
			meta.Generation, meta.WALOffset, binio.ErrChecksum)
	}

	stBytes, err := br.Section(maxSection)
	if err != nil {
		return Meta{}, nil, nil, fmt.Errorf("ckpt: store section: %w", err)
	}
	segBytes, err := br.Section(maxSection)
	if err != nil {
		return Meta{}, nil, nil, fmt.Errorf("ckpt: segments section: %w", err)
	}
	if err := br.Trailer(); err != nil {
		return Meta{}, nil, nil, fmt.Errorf("ckpt: %w", err)
	}

	st, err := store.ReadBinary(bytes.NewReader(stBytes))
	if err != nil {
		return Meta{}, nil, nil, fmt.Errorf("ckpt: embedded store: %w", err)
	}
	seg, err := core.LoadSegments(bytes.NewReader(segBytes), st)
	if err != nil {
		return Meta{}, nil, nil, fmt.Errorf("ckpt: embedded segments: %w", err)
	}
	return meta, st, seg, nil
}

// Install writes a checkpoint and publishes it with the retain-2
// rotation: the artifact is built in a temp file and fsync'd, the
// current checkpoint (if any) is renamed to the .prev slot, the temp
// file is renamed into the current slot, and the directory is synced.
//
// Every crash window leaves a recoverable state: before the first
// rename nothing changed; between the renames the previous checkpoint
// sits in the .prev slot and Recover falls through to it; after the
// second rename the new checkpoint is live.  The previous artifact is
// only ever displaced by a fully durable successor.
func Install(base string, meta Meta, writeStore, writeSegments func(io.Writer) error) error {
	p := PathsFor(base)
	tmp := base + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: install: %w", err)
	}
	defer os.Remove(tmp) // no-op after a successful rename
	if err := Write(f, meta, writeStore, writeSegments); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ckpt: install sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ckpt: install close: %w", err)
	}
	if _, err := os.Stat(p.Cur); err == nil {
		if err := renameFile(p.Cur, p.Prev); err != nil {
			return fmt.Errorf("ckpt: rotating previous checkpoint: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("ckpt: install: %w", err)
	}
	if err := renameFile(tmp, p.Cur); err != nil {
		return fmt.Errorf("ckpt: publishing checkpoint: %w", err)
	}
	return syncDir(base)
}

// Warning records one rejected artifact on the recovery chain.  The
// chain continuing is the designed behavior; the warning exists so the
// fallback is LOUD — operators must learn an artifact was damaged even
// when recovery succeeds.
type Warning struct {
	Path string
	Err  error
}

func (w Warning) String() string {
	return fmt.Sprintf("checkpoint artifact %s rejected: %v", w.Path, w.Err)
}

// Result is one successfully recovered checkpoint.
type Result struct {
	Meta  Meta
	Store *store.Store
	Seg   *core.SegmentedIndex
	// Source is the artifact path the recovery loaded (the current
	// checkpoint, or the .prev fallback).
	Source string
}

// Recover walks the artifact chain — current checkpoint, then the
// .prev fallback — and returns the first that loads and validates
// completely, along with a Warning for every artifact rejected on the
// way.  When neither loads, the error wraps ErrNoCheckpoint and the
// warnings tell the caller whether artifacts existed at all (corrupt
// chain) or the directory is simply fresh.
func Recover(base string) (*Result, []Warning, error) {
	p := PathsFor(base)
	var warns []Warning
	for _, path := range []string{p.Cur, p.Prev} {
		f, err := os.Open(path)
		if err != nil {
			if !os.IsNotExist(err) {
				warns = append(warns, Warning{Path: path, Err: err})
			}
			continue
		}
		meta, st, seg, err := Read(f)
		closeErr := f.Close()
		if err == nil && closeErr != nil {
			err = closeErr
		}
		if err != nil {
			warns = append(warns, Warning{Path: path, Err: err})
			continue
		}
		return &Result{Meta: meta, Store: st, Seg: seg, Source: path}, warns, nil
	}
	return nil, warns, fmt.Errorf("%w (tried %s, %s)", ErrNoCheckpoint, p.Cur, p.Prev)
}

func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("ckpt: dir sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("ckpt: dir sync: %w", err)
	}
	return nil
}
