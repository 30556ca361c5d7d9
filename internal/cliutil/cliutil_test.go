package cliutil

import (
	"bytes"
	"flag"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"testing"

	"strings"
	"time"

	"scaleshift/internal/atomicfile"
	"scaleshift/internal/bench/rstar"
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

func TestOpenIndexDegradesOnCorruptCache(t *testing.T) {
	st, err := LoadStore("", "", 5, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.WindowLen = 32

	cache := filepath.Join(t.TempDir(), "bad.index")
	if err := os.WriteFile(cache, []byte("not an index artifact"), 0o644); err != nil {
		t.Fatal(err)
	}

	var logbuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logbuf, nil))
	ix, how, err := OpenIndex(st, opts, cache, false, logger)
	if err != nil {
		t.Fatal(err)
	}
	if deg, _ := ix.Degraded(); !deg {
		t.Fatal("corrupt cache must degrade, not fail")
	}
	if !bytes.Contains(logbuf.Bytes(), []byte("degraded")) {
		t.Fatalf("degradation not logged: %s", logbuf.String())
	}
	if how == "" || !bytes.Contains([]byte(how), []byte("DEGRADED")) {
		t.Fatalf("how = %q, want DEGRADED marker", how)
	}

	// Strict mode fails loudly instead.
	if _, _, err := OpenIndex(st, opts, cache, true, logger); err == nil {
		t.Fatal("strict open of a corrupt cache must fail")
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
	built, how, err := OpenIndex(st, opts, cache, false, logger)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(how, "built") || !strings.Contains(how, "(extract ") || !strings.Contains(how, "tile ") {
		t.Fatalf("first open should build and say where the time went, got %q", how)
	}
	for _, strict := range []bool{true, false} {
		loaded, how, err := OpenIndex(st, opts, cache, strict, logger)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(how, "mapped from") || !strings.HasSuffix(how, "(direction-box directory)") {
			t.Fatalf("second open (strict %v) should map the bulk-built cache and say its shape, got %q", strict, how)
		}
		if built.WindowCount() != loaded.WindowCount() {
			t.Fatalf("cache round trip changed window count: %d != %d",
				built.WindowCount(), loaded.WindowCount())
		}
		loaded.Close()
	}

	// An artifact written before builds took the direction-box shape — or
	// by the experiments' insert loader — carries MBRs, is served as it
	// is, and says once what to do about it.
	old := filepath.Join(t.TempDir(), "mbr.index")
	mbr, err := core.NewIndex(st, opts)
	if err == nil {
		err = mbr.BuildWith(rstar.Load)
	}
	if err == nil {
		err = atomicfile.WriteFile(old, mbr.WriteBinary)
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, how, err = OpenIndex(st, opts, old, false, logger); err != nil || !strings.Contains(how, "(MBR directory: delete the cache to rebuild it with the direction-box one)") {
		t.Fatalf("opening an MBR artifact: how %q, err %v", how, err)
	}
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
