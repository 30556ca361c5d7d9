package faulty

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestErrReader(t *testing.T) {
	r := ErrReader(strings.NewReader("0123456789"), 4, nil)
	got, err := io.ReadAll(r)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if string(got) != "0123" {
		t.Fatalf("read %q before fault, want %q", got, "0123")
	}
	custom := errors.New("boom")
	r = ErrReader(strings.NewReader("abc"), 0, custom)
	if _, err := io.ReadAll(r); !errors.Is(err, custom) {
		t.Fatalf("custom fault not returned: %v", err)
	}
}

func TestTruncateReader(t *testing.T) {
	r := TruncateReader(strings.NewReader("0123456789"), 6)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "012345" {
		t.Fatalf("read %q, want %q", got, "012345")
	}
}

func TestBitFlipReader(t *testing.T) {
	// Read through a tiny buffer so the flip offset spans Read calls.
	r := BitFlipReader(strings.NewReader("aaaaaaaa"), 5, 0x01)
	var out bytes.Buffer
	if _, err := io.CopyBuffer(&out, struct{ io.Reader }{r}, make([]byte, 3)); err != nil {
		t.Fatal(err)
	}
	want := "aaaaa" + string('a'^0x01) + "aa"
	if out.String() != want {
		t.Fatalf("read %q, want %q", out.String(), want)
	}
	// Zero mask flips nothing.
	r = BitFlipReader(strings.NewReader("xyz"), 1, 0)
	got, _ := io.ReadAll(r)
	if string(got) != "xyz" {
		t.Fatalf("zero mask changed data: %q", got)
	}
}

func TestErrWriter(t *testing.T) {
	var sink bytes.Buffer
	w := ErrWriter(&sink, 5, nil)
	n, err := w.Write([]byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if n != 5 || sink.String() != "01234" {
		t.Fatalf("wrote %d bytes (%q), want 5 (%q)", n, sink.String(), "01234")
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("subsequent write did not fail: %v", err)
	}
}

func TestShortWriterLies(t *testing.T) {
	var sink bytes.Buffer
	w := ShortWriter(&sink, 4)
	n, err := w.Write([]byte("0123456789"))
	if err != nil || n != 10 {
		t.Fatalf("short writer reported (%d, %v), want full success", n, err)
	}
	if sink.String() != "0123" {
		t.Fatalf("sink holds %q, want %q", sink.String(), "0123")
	}
}

func TestBitFlipWriter(t *testing.T) {
	var sink bytes.Buffer
	w := BitFlipWriter(&sink, 2, 0x80)
	for _, chunk := range []string{"ab", "cd", "ef"} {
		if _, err := io.WriteString(w, chunk); err != nil {
			t.Fatal(err)
		}
	}
	want := append([]byte("ab"), 'c'^0x80, 'd', 'e', 'f')
	if !bytes.Equal(sink.Bytes(), want) {
		t.Fatalf("sink %q, want %q", sink.Bytes(), want)
	}
	// The caller's buffer must not be mutated.
	buf := []byte("zz")
	w2 := BitFlipWriter(io.Discard, 0, 0xff)
	if _, err := w2.Write(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "zz" {
		t.Fatalf("caller buffer mutated: %q", buf)
	}
}

func TestFailingFile(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	full := errors.New("full")
	w := FailingFile(f, 3, full, nil)
	if n, err := w.Write([]byte("abcdef")); n != 3 || !errors.Is(err, full) {
		t.Fatalf("write past the budget: %d, %v", n, err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync without a sync fault: %v", err)
	}
	eio := errors.New("eio")
	w = FailingFile(f, -1, nil, eio)
	if n, err := w.Write([]byte("gh")); n != 2 || err != nil {
		t.Fatalf("write with no write fault: %d, %v", n, err)
	}
	if err := w.Sync(); !errors.Is(err, eio) {
		t.Fatalf("sync fault: %v", err)
	}
	got, err := os.ReadFile(f.Name())
	if err != nil || string(got) != "abcgh" {
		t.Fatalf("file holds %q (%v), want %q", got, err, "abcgh")
	}
}
