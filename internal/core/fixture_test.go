package core

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"scaleshift/internal/binio"
	"scaleshift/internal/store"
)

// TestFixturesServeBoxDirectory holds the one structural invariant of
// the serving path: whatever artifact it is handed, it serves only
// direction-box arenas.  Every fixture under testdata/ and
// ../ckpt/testdata/ — each written by an older build, in a layout
// flatFromSection refuses — goes through every path its container
// reaches: an SSIDX file mapped (OpenOrRebuildFile), and segment bytes
// as an SSSEG stream (LoadSegments) and as a checkpoint's segment file
// (SegmentList.Open).  Each path rebuilds the arena from the store, and
// answers as a fresh build.
func TestFixturesServeBoxDirectory(t *testing.T) {
	// The store each fixture of this package was written over.
	storeFor := func(path string) *store.Store {
		if strings.HasPrefix(filepath.Base(path), "arena_") {
			return populatedStore(t, 3, 100, 1)
		}
		return buildTestIndex(t, testOptions(), 6, 100).Store()
	}
	indexes, _ := filepath.Glob(filepath.Join("testdata", "*.ssidx"))
	segments, _ := filepath.Glob(filepath.Join("testdata", "*.ssseg"))
	checkpoints, _ := filepath.Glob(filepath.Join("..", "ckpt", "testdata", "*.ssckp"))
	if len(indexes) == 0 || len(segments) == 0 || len(checkpoints) == 0 {
		t.Fatalf("fixtures: %v %v %v", indexes, segments, checkpoints)
	}
	for _, path := range indexes {
		rebuiltArtifact(t, storeFor(path), path, "")
	}
	for _, path := range segments {
		rebuiltSegments(t, storeFor(path), readFile(t, path), "")
	}
	for _, path := range checkpoints {
		// An SSCKP v1 checkpoint: a meta section, the store, the
		// segments as an SSSEG artifact.
		br := binio.NewByteReader(readFile(t, path))
		var sections [3][]byte
		err := br.Magic([]byte("SSCKP\x01"))
		for i := 0; i < len(sections) && err == nil; i++ {
			sections[i], err = br.Section(maxIndexSection)
		}
		st, err2 := store.ReadBinary(bytes.NewReader(sections[1]))
		if err != nil || err2 != nil {
			t.Fatalf("%s: %v, %v", path, err, err2)
		}
		rebuiltSegments(t, st, sections[2], "")
	}
}

// TestSSIDXFixtureServed holds the reader whose writer is gone.  Nothing
// writes SSIDX v3 any more, so testdata/served/box_v3.ssidx — the
// bulk-built index over populatedStore(3, 100, 1), a direction-box
// arena, written by the last SSIDX writer — is the only artifact that
// reaches that reader.  It sits outside TestFixturesServeBoxDirectory's
// glob, whose fixtures are all in layouts that are refused; this one is
// served.  LoadIndexFile, LoadIndex and OpenOrRebuildFile serve it as it
// is (no rebuild) and answer as a fresh build does, and its arena bytes
// are the ones WriteBinary writes today over the same store.
func TestSSIDXFixtureServed(t *testing.T) {
	st := populatedStore(t, 3, 100, 1)
	path := filepath.Join("testdata", "served", "box_v3.ssidx")
	data := readFile(t, path)
	fresh := freshIndex(t, st, testOptions())

	mapped, err := LoadIndexFile(path, st)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	streamed, err := LoadIndex(bytes.NewReader(data), st)
	if err != nil {
		t.Fatal(err)
	}
	opened, rebuilt, err := OpenOrRebuildFile(path, st, testOptions())
	if err != nil || rebuilt != nil {
		t.Fatalf("OpenOrRebuildFile: %v, rebuilt for %v", err, rebuilt)
	}
	defer opened.Close()
	for what, ix := range map[string]*Index{"LoadIndexFile": mapped, "LoadIndex": streamed, "OpenOrRebuildFile": opened} {
		answersLike(t, what, fresh, ix)
	}

	var written bytes.Buffer
	if err := fresh.WriteBinary(&written); err != nil {
		t.Fatal(err)
	}
	old, err := parseArtifact(data)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := parseArtifact(written.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	oldArena, err := arenaFromSection(old.arenas[0])
	if err != nil {
		t.Fatal(err)
	}
	curArena, err := arenaFromSection(cur.arenas[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(cur.arenas) != 1 || !bytes.Equal(oldArena, curArena) {
		t.Fatalf("WriteBinary writes %d arenas, the first %d bytes; the SSIDX fixture's arena is %d bytes, equal %v",
			len(cur.arenas), len(curArena), len(oldArena), bytes.Equal(oldArena, curArena))
	}
}
