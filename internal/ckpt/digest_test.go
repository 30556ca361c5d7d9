package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"scaleshift/internal/core"
	"scaleshift/internal/stock"
	"scaleshift/internal/store"
)

// digestSSCKP is the SHA-256 of the SSCKP v1 artifact of the 200 × 650
// fixture (generation 1, WAL offset 0, created at the epoch): a
// checkpoint must be byte for byte reproducible, and one an older build
// wrote must stay readable.  Recorded when the segment arenas inside it
// went to version 2 (see core's digest_test.go); the container did not
// change.
const digestSSCKP = "9ade92205f05ce49854167a13162994dd2a54c632934ed06cac28066d2025f9c"

func TestCheckpointDigest(t *testing.T) {
	st := store.New()
	cfg := stock.DefaultConfig()
	cfg.Companies, cfg.Days = 200, 650
	if _, err := stock.Populate(st, cfg); err != nil {
		t.Fatal(err)
	}
	seg, err := core.NewSegmentedIndex(st, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	write, release, err := seg.SegmentWriter()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	h := sha256.New()
	meta := Meta{Generation: 1, WALOffset: 0, CreatedAt: time.Unix(0, 0)}
	if err := Write(h, meta, st.Snapshot().WriteBinary, write); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != digestSSCKP {
		t.Errorf("SSCKP v1 digest %s, want %s", got, digestSSCKP)
	}
}
