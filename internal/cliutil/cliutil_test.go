package cliutil

import (
	"bytes"
	"flag"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scaleshift/internal/core"
	"scaleshift/internal/obs"
)

func TestAddObsFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o := AddObsFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if o.LogFormat != "text" || o.MetricsOut != "" {
		t.Fatalf("defaults = %+v", o)
	}
	if _, err := o.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestObsFlagsRejectBadFormat(t *testing.T) {
	o := &ObsFlags{LogFormat: "yaml"}
	if _, err := o.Setup(); err == nil {
		t.Fatal("unknown -log-format must fail")
	}
}

func TestMetricsOutEnablesAndWrites(t *testing.T) {
	defer obs.Disable()
	path := filepath.Join(t.TempDir(), "metrics.json")
	o := &ObsFlags{LogFormat: "json", MetricsOut: path}
	if _, err := o.Setup(); err != nil {
		t.Fatal(err)
	}
	if !obs.Enabled() {
		t.Fatal("-metrics-out must enable the obs layer")
	}
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(bytes.TrimSpace(data), []byte("[")) {
		t.Fatalf("snapshot is not a JSON array: %s", data)
	}
}

func TestLoadStoreSynthetic(t *testing.T) {
	st, err := LoadStore("", "", 5, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumSequences() != 5 {
		t.Fatalf("sequences = %d, want 5", st.NumSequences())
	}
}

func TestLoadStoreMissingFile(t *testing.T) {
	if _, err := LoadStore(filepath.Join(t.TempDir(), "nope.store"), "", 0, 0, 0); err == nil {
		t.Fatal("missing store artifact must fail")
	}
}

// TestOpenIndexRebuildsCorruptCache: a cache that cannot be served as it
// is — garbage, or an artifact of the previous arena version (core's
// fixture, written over this store) — is rebuilt from the store with one warning, says so
// on the how line, answers as a fresh build, and is replaced by the
// rebuilt index, which the next open maps.
func TestOpenIndexRebuildsCorruptCache(t *testing.T) {
	st, err := LoadStore("", "", 3, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.WindowLen = 32
	fresh, err := core.NewIndex(st, opts)
	if err == nil {
		err = fresh.Build()
	}
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := fresh.WriteBinary(&want); err != nil {
		t.Fatal(err)
	}
	oldBytes, err := os.ReadFile(filepath.Join("..", "core", "testdata", "arena_v2_box.ssseg"))
	if err != nil {
		t.Fatal(err)
	}

	for what, bad := range map[string][]byte{"garbage": []byte("not an index artifact"), "arena version 2": oldBytes} {
		cache := filepath.Join(t.TempDir(), "bad.index")
		if err := os.WriteFile(cache, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		var logbuf bytes.Buffer
		logger := slog.New(slog.NewTextHandler(&logbuf, nil))
		ix, how, err := OpenIndex(st, opts, cache, logger)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if n := strings.Count(logbuf.String(), "level=WARN"); n != 1 || !strings.Contains(logbuf.String(), "rebuilt from the store") {
			t.Fatalf("%s: want one rebuild warning, logged %q", what, logbuf.String())
		}
		if !strings.HasPrefix(how, "rebuilt (") || !strings.Contains(how, ", cached to "+cache) ||
			what == "arena version 2" && !strings.Contains(how, "unsupported flat arena version 2") {
			t.Fatalf("%s: how = %q, want the rebuild and its reason", what, how)
		}
		if ix.WindowCount() != fresh.WindowCount() {
			t.Fatalf("%s: rebuilt over %d windows", what, ix.WindowCount())
		}
		if got, err := os.ReadFile(cache); err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: the cache was not replaced by the rebuilt index (%v)", what, err)
		}
		again, how, err := OpenIndex(st, opts, cache, logger)
		if err != nil || !strings.HasPrefix(how, "mapped from") {
			t.Fatalf("%s: reopening the rewritten cache: how %q, err %v", what, how, err)
		}
		again.Close()
	}
}

func TestOpenIndexBuildAndReload(t *testing.T) {
	st, err := LoadStore("", "", 5, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.WindowLen = 32
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))

	cache := filepath.Join(t.TempDir(), "good.index")
	built, how, err := OpenIndex(st, opts, cache, logger)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(how, "built in ") || !strings.Contains(how, "(extract ") || !strings.Contains(how, "tile ") {
		t.Fatalf("first open should build and say where the time went, got %q", how)
	}
	loaded, how, err := OpenIndex(st, opts, cache, logger)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(how, "mapped from") || !strings.HasSuffix(how, "(direction-box directory)") {
		t.Fatalf("second open should map the bulk-built cache and say its shape, got %q", how)
	}
	if built.WindowCount() != loaded.WindowCount() {
		t.Fatalf("cache round trip changed window count: %d != %d",
			built.WindowCount(), loaded.WindowCount())
	}
	loaded.Close()
}

func TestAddServeFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s := AddServeFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if s.MaxInflight != 64 || s.MaxQueue != 128 ||
		s.QueueTimeout != 2*time.Second || s.RequestTimeout != 15*time.Second {
		t.Fatalf("defaults = %+v", s)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("defaults must validate: %v", err)
	}
}

func TestServeFlagsParse(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s := AddServeFlags(fs)
	args := []string{"-max-inflight", "8", "-max-queue", "16", "-queue-timeout", "500ms", "-request-timeout", "3s"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if s.MaxInflight != 8 || s.MaxQueue != 16 ||
		s.QueueTimeout != 500*time.Millisecond || s.RequestTimeout != 3*time.Second {
		t.Fatalf("parsed = %+v", s)
	}
}

func TestServeFlagsValidateRejectsNonPositive(t *testing.T) {
	good := ServeFlags{MaxInflight: 1, MaxQueue: 1, QueueTimeout: time.Second, RequestTimeout: time.Second}
	for name, mutate := range map[string]func(*ServeFlags){
		"max-inflight":    func(s *ServeFlags) { s.MaxInflight = 0 },
		"max-queue":       func(s *ServeFlags) { s.MaxQueue = -1 },
		"queue-timeout":   func(s *ServeFlags) { s.QueueTimeout = 0 },
		"request-timeout": func(s *ServeFlags) { s.RequestTimeout = -time.Second },
	} {
		s := good
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: non-positive value validated", name)
		} else if !strings.Contains(err.Error(), name) {
			t.Errorf("%s: error %q does not name the flag", name, err)
		}
	}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}
