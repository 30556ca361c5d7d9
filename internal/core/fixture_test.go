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
// direction-box arenas of the current version.  Every fixture under
// testdata/ and ../ckpt/testdata/*.ssckp — each written by an older
// build, in a layout the loaders refuse — goes through every path its
// container reaches: an index file (SSIDX, refused by its magic, or
// SSSEG) opened by LoadIndex and LoadIndexFile, which refuse it with
// ErrVersion, and mapped by OpenOrRebuildFile, and segment bytes as an
// SSSEG stream (LoadSegments) and as a checkpoint's segment file
// (SegmentList.Open).  Each rebuilding path rebuilds the arena from the
// store, and answers as a fresh build.
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
		rebuiltArtifact(t, storeFor(path), path, "")
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
