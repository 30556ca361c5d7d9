// Package ckpt is the durable-ingest checkpoint: a consistent (store,
// segmented index, WAL offset) triple on disk, so a restart recovers by
// loading it and replaying only the WAL tail past its offset — cost
// bounded by the tail, not the full ingest history.
//
// A checkpoint (SSCKP v2, Save) is a manifest file at the base path and
// a directory of segment files beside it (SegmentDir).  The manifest is
// binio-framed: a meta section (generation, WAL offset, creation time),
// the whole store in the SSTOR format, the ordered segment list (per
// segment its file name, size, CRC32C and window ranges; core's
// SegmentList), and a whole-file trailer.  A frozen segment is
// immutable, so its file is written and fsynced once, the first time a
// checkpoint names it; later checkpoints name the same file.  The store
// stays inline in every manifest, so the current and the previous
// checkpoint remain two independent copies of the data, and a segment
// that cannot be served as it is — its file missing or damaged, its
// arena in an older layout or with an MBR directory — is derived state
// that recovery rebuilds from that store (a loud Warning, not a
// rejection).
//
// The SSCKP v1 format (Write, Read, Install) is the same meta and store
// sections followed by every segment inline in the SSSEG format.
// Recover still reads it; the next Save after it writes v2.
//
// Every byte is CRC-protected, so a torn or bit-flipped manifest is
// DETECTED at load and recovery falls back — never silently serves
// damaged data.  Install and Save publish with a retain-2 rotation: the
// previous manifest survives as <base>.prev until the next one lands.
// Paired with the caller's lag-one WAL truncation (truncate only through
// the PREVIOUS checkpoint's offset), corruption of the newest manifest
// always leaves a recoverable older one whose WAL tail is still on
// disk.  After the rotation is durable, Save deletes every segment file
// neither manifest names.  Recover walks the chain — current, then
// previous — and reports every rejected file as a typed Warning so the
// fallback is loud.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"scaleshift/internal/binio"
	"scaleshift/internal/core"
	"scaleshift/internal/store"
)

// ckptMagic identifies the checkpoint formats: version 1 embeds the
// segments, version 2 names segment files.
var (
	ckptMagic   = []byte("SSCKP\x01")
	ckptMagicV2 = []byte("SSCKP\x02")
)

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

// ErrNotCheckpoint reports a file that does not begin with a checkpoint
// magic at all.
var ErrNotCheckpoint = errors.New("not a checkpoint artifact")

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

func (m Meta) encode() []byte {
	head := make([]byte, metaLen)
	binary.LittleEndian.PutUint64(head[0:], uint64(m.Generation))
	binary.LittleEndian.PutUint64(head[8:], uint64(m.WALOffset))
	binary.LittleEndian.PutUint64(head[16:], uint64(m.CreatedAt.UnixNano()))
	return head
}

func decodeMeta(head []byte) (Meta, error) {
	if len(head) != metaLen {
		return Meta{}, fmt.Errorf("ckpt: meta section is %d bytes, want %d: %w", len(head), metaLen, binio.ErrChecksum)
	}
	meta := Meta{
		Generation: int64(binary.LittleEndian.Uint64(head[0:])),
		WALOffset:  int64(binary.LittleEndian.Uint64(head[8:])),
		CreatedAt:  time.Unix(0, int64(binary.LittleEndian.Uint64(head[16:]))),
	}
	if meta.Generation < 0 || meta.WALOffset < 0 {
		return Meta{}, fmt.Errorf("ckpt: implausible meta (generation %d, wal offset %d): %w",
			meta.Generation, meta.WALOffset, binio.ErrChecksum)
	}
	return meta, nil
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

// SegmentDir is the directory holding the segment files the manifests
// rooted at base name.
func SegmentDir(base string) string { return base + ".segs" }

// segSuffix ends every segment file name; a name ending in tmpSuffix is
// a segment file being written.
const (
	segSuffix = ".sseg"
	tmpSuffix = ".tmp"
)

// Write serializes one SSCKP v1 checkpoint to w: meta, then the store
// bytes produced by writeStore (store/Snapshot WriteBinary), then the
// segment bytes produced by writeSegments (core SegmentWriter).
//
// Neither artifact is staged in memory.  A section's length precedes
// its bytes, so each writer runs twice — once into a counter, once into
// the frame — and must write the same bytes both times; the two above
// do, serializing a pinned snapshot and a pinned manifest.
func Write(w io.Writer, meta Meta, writeStore, writeSegments func(io.Writer) error) error {
	bw := binio.NewWriter(w)
	bw.Magic(ckptMagic)
	bw.Section(meta.encode())
	if err := streamArtifact(bw, writeStore); err != nil {
		return fmt.Errorf("ckpt: store section: %w", err)
	}
	if err := streamArtifact(bw, writeSegments); err != nil {
		return fmt.Errorf("ckpt: segments section: %w", err)
	}
	return bw.Close()
}

// writeManifest serializes one SSCKP v2 manifest to w: meta, the store
// as Write streams it, then the encoded segment list.
func writeManifest(w io.Writer, meta Meta, writeStore func(io.Writer) error, list []byte) error {
	bw := binio.NewWriter(w)
	bw.Magic(ckptMagicV2)
	bw.Section(meta.encode())
	if err := streamArtifact(bw, writeStore); err != nil {
		return fmt.Errorf("ckpt: store section: %w", err)
	}
	bw.Section(list)
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

// Read parses and fully validates an SSCKP v1 checkpoint written by
// Write, returning its meta, the recovered store, and the segmented
// index over it, with every segment rebuilt from that store that could
// not be served as it is (see core.LoadSegments).  Any framing,
// checksum, or structural failure is a typed error; nothing partially
// loaded is ever returned.  A v2 manifest names files beside it;
// Recover reads those.
func Read(r io.Reader) (*Result, []core.SegmentRebuild, error) {
	br := binio.NewReader(r)
	if _, err := br.MagicVersions(ckptMagic, ckptVersions...); err != nil {
		return nil, nil, fmt.Errorf("ckpt: reading magic: %w", err)
	}
	head, err := br.Section(metaLen)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: meta section: %w", err)
	}
	meta, err := decodeMeta(head)
	if err != nil {
		return nil, nil, err
	}
	stBytes, err := br.Section(maxSection)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: store section: %w", err)
	}
	segBytes, err := br.Section(maxSection)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: segments section: %w", err)
	}
	if err := br.Trailer(); err != nil {
		return nil, nil, fmt.Errorf("ckpt: %w", err)
	}

	st, err := store.ReadBinary(bytes.NewReader(stBytes))
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: embedded store: %w", err)
	}
	seg, rebuilt, err := core.LoadSegments(bytes.NewReader(segBytes), st)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: embedded segments: %w", err)
	}
	return &Result{Meta: meta, Store: st, Seg: seg}, rebuilt, nil
}

// manifest is a parsed SSCKP v2 manifest.  store aliases the bytes it
// was parsed from.
type manifest struct {
	meta  Meta
	store []byte
	list  *core.SegmentList
}

// checkMagic classifies the start of a checkpoint file: its format
// version, ErrTruncated, ErrNotCheckpoint, or ErrVersion.
func checkMagic(data []byte) (byte, error) {
	n := len(ckptMagic)
	if len(data) < n {
		return 0, fmt.Errorf("ckpt: %d-byte file: %w", len(data), binio.ErrTruncated)
	}
	if !bytes.Equal(data[:n-1], ckptMagic[:n-1]) {
		return 0, fmt.Errorf("ckpt: magic %q: %w", data[:n], ErrNotCheckpoint)
	}
	if v := data[n-1]; v != 1 && v != 2 {
		return 0, fmt.Errorf("ckpt: %w: format version %d (this build reads versions 1 and 2)", binio.ErrVersion, v)
	}
	return data[n-1], nil
}

// parseManifest parses and verifies a whole SSCKP v2 manifest held in
// memory: every section CRC and the trailer, the meta, and the segment
// list's shape.  Failures are typed (binio's sentinels or
// ErrNotCheckpoint); no length is trusted before it is bounded by the
// bytes present, so nothing is allocated for a hostile claim.
func parseManifest(data []byte) (manifest, error) { return readManifest(data, true) }

// readManifest is parseManifest; with whole false it skips the store
// section by its length and the trailer, so of a mapped manifest only
// the pages holding the meta and the segment list are read.
func readManifest(data []byte, whole bool) (manifest, error) {
	v, err := checkMagic(data)
	if err != nil {
		return manifest{}, err
	}
	if v != 2 {
		return manifest{}, fmt.Errorf("ckpt: %w: format version %d is not a manifest", binio.ErrVersion, v)
	}
	br := binio.NewByteReader(data)
	if err := br.Magic(ckptMagicV2); err != nil {
		return manifest{}, fmt.Errorf("ckpt: %w", err)
	}
	head, err := br.Section(metaLen)
	if err != nil {
		return manifest{}, fmt.Errorf("ckpt: meta section: %w", err)
	}
	section := br.SectionLazy
	if whole {
		section = br.Section
	}
	stBytes, err := section(maxSection)
	if err != nil {
		return manifest{}, fmt.Errorf("ckpt: store section: %w", err)
	}
	listBytes, err := br.Section(maxSection)
	if err != nil {
		return manifest{}, fmt.Errorf("ckpt: segment list section: %w", err)
	}
	if whole {
		if err := br.Trailer(); err != nil {
			return manifest{}, fmt.Errorf("ckpt: %w", err)
		}
	}
	meta, err := decodeMeta(head)
	if err != nil {
		return manifest{}, err
	}
	list, err := core.ParseSegmentList(listBytes)
	if err != nil {
		return manifest{}, fmt.Errorf("ckpt: segment list: %w", err)
	}
	return manifest{meta: meta, store: stBytes, list: list}, nil
}

// Install writes an SSCKP v1 checkpoint and publishes it with the
// retain-2 rotation: the artifact is built in a temp file and fsync'd,
// the current checkpoint (if any) is renamed to the .prev slot, the
// temp file is renamed into the current slot, and the directory is
// synced.
//
// Every crash window leaves a recoverable state: before the first
// rename nothing changed; between the renames the previous checkpoint
// sits in the .prev slot and Recover falls through to it; after the
// second rename the new checkpoint is live.  The previous artifact is
// only ever displaced by a fully durable successor.
func Install(base string, meta Meta, writeStore, writeSegments func(io.Writer) error) error {
	_, err := install(base, func(w io.Writer) error { return Write(w, meta, writeStore, writeSegments) }, nil)
	return err
}

// install is the rotation Install and Save share; it returns the size
// of the file it published.  hook, when set, runs between the renames
// with PhaseMidRotate.
func install(base string, write func(io.Writer) error, hook func(string) error) (int64, error) {
	p := PathsFor(base)
	tmp := base + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("ckpt: install: %w", err)
	}
	defer os.Remove(tmp) // no-op after a successful rename
	var n byteCounter
	if err := write(io.MultiWriter(f, &n)); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, fmt.Errorf("ckpt: install sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("ckpt: install close: %w", err)
	}
	if _, err := os.Stat(p.Cur); err == nil {
		if err := renameFile(p.Cur, p.Prev); err != nil {
			return 0, fmt.Errorf("ckpt: rotating previous checkpoint: %w", err)
		}
	} else if !os.IsNotExist(err) {
		return 0, fmt.Errorf("ckpt: install: %w", err)
	}
	if hook != nil {
		if err := hook(PhaseMidRotate); err != nil {
			return 0, err
		}
	}
	if err := renameFile(tmp, p.Cur); err != nil {
		return 0, fmt.Errorf("ckpt: publishing checkpoint: %w", err)
	}
	return int64(n), syncDir(filepath.Dir(base))
}

// The phases at which Save calls its hook; a non-nil error from the
// hook stops Save right there, as a crash would.
const (
	// PhaseSegmentsSynced: every segment file is written, fsynced and
	// in a synced directory; no manifest names the new ones yet.
	PhaseSegmentsSynced = "segments-synced"
	// PhaseMidRotate: the current manifest has become .prev and the new
	// one is not yet current.
	PhaseMidRotate = "mid-rotate"
	// PhasePreGC: the new manifest is durable; segment files neither
	// manifest names are still on disk.
	PhasePreGC = "pre-gc"
)

// Stats describes one Save.
type Stats struct {
	// BytesWritten counts the new segment files and the manifest.
	BytesWritten int64
	// SegmentsWritten counts segment files written; the rest of the
	// segments already had theirs.
	SegmentsWritten int
	// SegmentFiles is how many segment files the directory holds after
	// the collection: those the current and the previous manifest name.
	SegmentFiles int
	// CollectErr is a failed collection: the checkpoint is durable, and
	// the next Save collects again.
	CollectErr error
}

// Save takes an SSCKP v2 checkpoint of segs and the store writeStore
// produces.  Each segment without a file in SegmentDir(base) is written
// to one and fsynced, then the directory is fsynced; the manifest
// naming those files is published with the retain-2 rotation; then
// every segment file neither the new manifest nor the previous one
// names — merged-away segments, orphans of a crashed Save — is deleted.
// hook, when set, runs at the Phase* points.
func Save(base string, meta Meta, writeStore func(io.Writer) error, segs *core.SegmentSet, hook func(string) error) (Stats, error) {
	if hook == nil {
		hook = func(string) error { return nil }
	}
	dir := SegmentDir(base)
	stats, err := persistSegments(dir, meta.Generation, segs)
	if err != nil {
		return stats, err
	}
	if err := hook(PhaseSegmentsSynced); err != nil {
		return stats, err
	}
	list, err := segs.EncodeList(dir)
	if err != nil {
		return stats, err
	}
	n, err := install(base, func(w io.Writer) error { return writeManifest(w, meta, writeStore, list) }, hook)
	if err != nil {
		return stats, err
	}
	stats.BytesWritten += n
	if err := hook(PhasePreGC); err != nil {
		return stats, err
	}
	keep := map[string]bool{}
	for i := 0; i < segs.Len(); i++ {
		f, _ := segs.File(i, dir)
		keep[f.Name] = true
	}
	stats.SegmentFiles, stats.CollectErr = collect(dir, PathsFor(base).Prev, keep)
	return stats, nil
}

// persistSegments gives every segment of segs a file in dir, writing
// only those that have none there yet.
func persistSegments(dir string, gen int64, segs *core.SegmentSet) (Stats, error) {
	var stats Stats
	_, statErr := os.Stat(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return stats, fmt.Errorf("ckpt: segment directory: %w", err)
	}
	if os.IsNotExist(statErr) {
		if err := syncDir(filepath.Dir(dir)); err != nil {
			return stats, err
		}
	}
	for i := 0; i < segs.Len(); i++ {
		if f, ok := segs.File(i, dir); ok {
			// A file that went missing under a live segment is written
			// again rather than named.
			if info, err := os.Stat(filepath.Join(dir, f.Name)); err == nil && info.Size() == f.Size {
				continue
			}
		}
		f, err := writeSegmentFile(dir, gen, i, segs)
		if err != nil {
			return stats, err
		}
		segs.SetFile(i, dir, f)
		stats.BytesWritten += f.Size
		stats.SegmentsWritten++
	}
	if stats.SegmentsWritten > 0 {
		if err := syncDir(dir); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// writeSegmentFile writes segment i of segs into dir through a temp
// file, fsynced, and renames it to a name carrying the generation that
// wrote it, its position and its checksum — a name no other content
// gets.
func writeSegmentFile(dir string, gen int64, i int, segs *core.SegmentSet) (core.SegmentFile, error) {
	tmp, err := os.CreateTemp(dir, "seg-*"+tmpSuffix)
	if err != nil {
		return core.SegmentFile{}, fmt.Errorf("ckpt: segment file: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after the rename
	var n byteCounter
	if err := segs.WriteFile(i, io.MultiWriter(tmp, &n)); err != nil {
		tmp.Close()
		return core.SegmentFile{}, fmt.Errorf("ckpt: segment %d: %w", i, err)
	}
	// The file ends in the arena section's CRC32C, then the trailer;
	// the former is the checksum the manifest records.
	var tail [8]byte
	if _, err := tmp.ReadAt(tail[:], int64(n)-8); err != nil {
		tmp.Close()
		return core.SegmentFile{}, fmt.Errorf("ckpt: segment %d: %w", i, err)
	}
	crc := binary.LittleEndian.Uint32(tail[:4])
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return core.SegmentFile{}, fmt.Errorf("ckpt: segment %d sync: %w", i, err)
	}
	if err := tmp.Close(); err != nil {
		return core.SegmentFile{}, fmt.Errorf("ckpt: segment %d close: %w", i, err)
	}
	f := core.SegmentFile{Name: fmt.Sprintf("%d-%d-%08x%s", gen, i, crc, segSuffix), Size: int64(n), CRC: crc}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, f.Name)); err != nil {
		return core.SegmentFile{}, fmt.Errorf("ckpt: segment %d: %w", i, err)
	}
	return f, nil
}

// collect deletes the segment files (and temp files) in dir that are
// neither in keep nor named by the manifest at prev, and returns how
// many segment files remain.  A previous manifest that cannot be read
// keeps nothing: its segments are derived state, rebuilt from its own
// store should it ever be recovered.
func collect(dir, prev string, keep map[string]bool) (int, error) {
	for _, f := range namedFiles(prev) {
		keep[f.Name] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("ckpt: collecting segment files: %w", err)
	}
	kept, removed := 0, 0
	var firstErr error
	for _, e := range entries {
		name := e.Name()
		switch {
		case keep[name]:
			kept++
			continue
		case strings.HasSuffix(name, segSuffix), strings.HasSuffix(name, tmpSuffix):
		default:
			continue // not ours
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			kept++
			if firstErr == nil {
				firstErr = fmt.Errorf("ckpt: collecting segment files: %w", err)
			}
			continue
		}
		removed++
	}
	if removed > 0 {
		if err := syncDir(dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return kept, firstErr
}

// namedFiles returns the segment files the manifest at path names, or
// none when it cannot be read.  Its store is not read.
func namedFiles(path string) []core.SegmentFile {
	m, err := binio.OpenMapping(path)
	if err != nil {
		return nil
	}
	defer m.Close()
	man, err := readManifest(m.Data, false)
	if err != nil {
		return nil
	}
	return man.list.Files()
}

// Warning records one rejected file on the recovery chain.  The chain
// continuing is the designed behavior; the warning exists so the
// fallback is LOUD — operators must learn a file was damaged even when
// recovery succeeds.
type Warning struct {
	Path string
	Err  error
	// Rebuilt marks a segment that could not be served as it is — its
	// file missing or damaged, its arena in an older layout or with an
	// MBR directory: the checkpoint naming it was recovered, the segment
	// rebuilt from the checkpoint's store.  Path is the segment's file,
	// or "<checkpoint> segment <i>" for one inline in an SSCKP v1 file.
	Rebuilt bool
}

func (w Warning) String() string {
	if w.Rebuilt {
		return fmt.Sprintf("%s rejected (%v); segment rebuilt from the checkpoint's store", w.Path, w.Err)
	}
	return fmt.Sprintf("checkpoint artifact %s rejected: %v", w.Path, w.Err)
}

// Result is one successfully recovered checkpoint.
type Result struct {
	Meta  Meta
	Store *store.Store
	Seg   *core.Index
	// Source is the artifact path the recovery loaded (the current
	// checkpoint, or the .prev fallback).
	Source string
}

// Recover walks the artifact chain — current checkpoint, then the
// .prev fallback — and returns the first that loads and validates
// completely, along with a Warning for every file rejected on the way.
// A v2 manifest's segment files are mapped and served in place, each
// verified in full first; a segment that cannot be served as it is is
// rebuilt from the checkpoint's store (a Rebuilt warning), so a bad
// segment never costs a fallback.  When no manifest loads, the error wraps
// ErrNoCheckpoint and the warnings tell the caller whether artifacts
// existed at all (corrupt chain) or the directory is simply fresh.
func Recover(base string) (*Result, []Warning, error) {
	p := PathsFor(base)
	var warns []Warning
	for _, path := range []string{p.Cur, p.Prev} {
		res, rebuilt, err := load(path, SegmentDir(base))
		if err != nil {
			if !os.IsNotExist(err) {
				warns = append(warns, Warning{Path: path, Err: err})
			}
			continue
		}
		for _, r := range rebuilt {
			warns = append(warns, Warning{Path: r.Path, Err: r.Err, Rebuilt: true})
		}
		res.Source = path
		return res, warns, nil
	}
	return nil, warns, fmt.Errorf("%w (tried %s, %s)", ErrNoCheckpoint, p.Cur, p.Prev)
}

// load recovers the checkpoint at path: a v1 artifact streamed through
// Read, a v2 manifest mapped and its segment files opened from segDir.
// A missing file is an error os.IsNotExist reports.
func load(path, segDir string) (*Result, []core.SegmentRebuild, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	magic := make([]byte, len(ckptMagic))
	n, _ := io.ReadFull(f, magic)
	v, err := checkMagic(magic[:n])
	if err != nil {
		return nil, nil, err
	}
	if v == 1 {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, nil, err
		}
		res, rebuilt, err := Read(f)
		for i := range rebuilt {
			rebuilt[i].Path = path + " " + rebuilt[i].Path
		}
		return res, rebuilt, err
	}
	// The store is copied out of the mapping; the segments map their own
	// files, so the manifest's mapping goes when load returns.
	m, err := binio.OpenMapping(path)
	if err != nil {
		return nil, nil, err
	}
	defer m.Close()
	man, err := parseManifest(m.Data)
	if err != nil {
		return nil, nil, err
	}
	st, err := store.ReadBinary(bytes.NewReader(man.store))
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: embedded store: %w", err)
	}
	seg, rebuilt, err := man.list.Open(segDir, st)
	if err != nil {
		return nil, nil, fmt.Errorf("ckpt: segment list: %w", err)
	}
	return &Result{Meta: man.meta, Store: st, Seg: seg}, rebuilt, nil
}

// syncDir fsyncs a directory, so renames and creations in it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ckpt: dir sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("ckpt: dir sync: %w", err)
	}
	return nil
}
