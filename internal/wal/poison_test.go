package wal

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"scaleshift/internal/faulty"
)

// TestFailedAppendPoisons injects the two ways an append fails — the
// disk filling part way through the record (ENOSPC on write) and the
// fsync failing after the bytes were handed over (EIO) — through the
// log's file, and requires the log to fail stop: the failed append
// errors, the file is cut back to the last acked record, and every
// later append is refused rather than acked behind the damage.  Reopened,
// the log replays exactly the acked records and appends again.
func TestFailedAppendPoisons(t *testing.T) {
	for _, c := range []struct {
		name   string
		inject func(*os.File) faulty.SyncWriter
		want   error
	}{
		{"ENOSPC mid-record", func(f *os.File) faulty.SyncWriter {
			return faulty.FailingFile(f, 11, syscall.ENOSPC, nil)
		}, syscall.ENOSPC},
		{"EIO from fsync", func(f *os.File) faulty.SyncWriter {
			return faulty.FailingFile(f, -1, nil, syscall.EIO)
		}, syscall.EIO},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ingest.wal")
			l, _, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.AppendSequence("acme", []float64{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			if err := l.AppendValues(0, []float64{4, 5}); err != nil {
				t.Fatal(err)
			}
			acked, end := l.Size(), l.Offset()

			l.out = c.inject(l.f)
			err = l.AppendValues(0, []float64{6, 7, 8})
			if !errors.Is(err, c.want) || !errors.Is(err, ErrPoisoned) {
				t.Fatalf("failed append returned %v, want %v and ErrPoisoned", err, c.want)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() != headerLen+acked {
				t.Fatalf("after the failure the file is %d bytes, want the %d acked", info.Size(), headerLen+acked)
			}
			// The disk is fine again, yet the log must not ack anything
			// until it is reopened.
			l.out = l.f
			if err := l.AppendValues(0, []float64{9}); !errors.Is(err, ErrPoisoned) {
				t.Fatalf("append after a failure returned %v, want ErrPoisoned", err)
			}
			if err := l.TruncateThrough(end); !errors.Is(err, ErrPoisoned) {
				t.Fatalf("truncation of a poisoned log returned %v, want ErrPoisoned", err)
			}
			if l.Size() != acked || l.Offset() != end {
				t.Fatalf("poisoned log moved: size %d offset %d, want %d %d", l.Size(), l.Offset(), acked, end)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l, recs, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if len(recs) != 2 || recs[1].End != end {
				t.Fatalf("reopened log replays %d records (%+v), want the 2 acked ending at %d", len(recs), recs, end)
			}
			if err := l.AppendValues(0, []float64{10}); err != nil {
				t.Fatalf("append after reopening: %v", err)
			}
		})
	}
}
