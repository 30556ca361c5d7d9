// Package faulty wraps io.Reader and io.Writer with injected faults —
// I/O errors after a byte budget, short writes, single-bit flips, and
// truncation — for exercising the persistence layer's failure paths.
// The corruption and crash-mid-write tests drive artifact writers and
// loaders through these wrappers to prove that every damaged artifact
// is detected (binio's typed errors) and that atomic writes never
// leave a half-written file behind.
//
// The wrappers are deterministic: faults trigger at exact byte
// offsets, so a failing case replays identically.
package faulty

import (
	"errors"
	"io"
)

// ErrInjected is the default fault returned by the error-injecting
// wrappers when the caller does not supply one.
var ErrInjected = errors.New("faulty: injected fault")

// errReader returns err once limit bytes have been read.
type errReader struct {
	r     io.Reader
	left  int64
	fault error
}

// ErrReader reads from r normally for the first n bytes, then returns
// err on every subsequent Read (a failing disk or socket).  A nil err
// defaults to ErrInjected.
func ErrReader(r io.Reader, n int64, err error) io.Reader {
	if err == nil {
		err = ErrInjected
	}
	return &errReader{r: r, left: n, fault: err}
}

func (e *errReader) Read(p []byte) (int, error) {
	if e.left <= 0 {
		return 0, e.fault
	}
	if int64(len(p)) > e.left {
		p = p[:e.left]
	}
	n, err := e.r.Read(p)
	e.left -= int64(n)
	return n, err
}

// truncReader yields io.EOF after n bytes — a file that was cut short,
// as opposed to one that errors.
type truncReader struct {
	r    io.Reader
	left int64
}

// TruncateReader reads at most n bytes from r and then reports a clean
// io.EOF, simulating a truncated artifact.
func TruncateReader(r io.Reader, n int64) io.Reader {
	return &truncReader{r: r, left: n}
}

func (t *truncReader) Read(p []byte) (int, error) {
	if t.left <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > t.left {
		p = p[:t.left]
	}
	n, err := t.r.Read(p)
	t.left -= int64(n)
	return n, err
}

// bitFlipReader XORs mask into the byte at offset as it streams by.
type bitFlipReader struct {
	r      io.Reader
	offset int64 // bytes until the flipped byte
	mask   byte
	pos    int64
}

// BitFlipReader streams r unchanged except for the byte at offset
// (0-based), which is XORed with mask — a single-bit or multi-bit flip
// depending on the mask.  A zero mask flips nothing.
func BitFlipReader(r io.Reader, offset int64, mask byte) io.Reader {
	return &bitFlipReader{r: r, offset: offset, mask: mask}
}

func (b *bitFlipReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if i := b.offset - b.pos; i >= 0 && i < int64(n) {
		p[i] ^= b.mask
	}
	b.pos += int64(n)
	return n, err
}

// errWriter accepts n bytes and then fails every subsequent write.
type errWriter struct {
	w     io.Writer
	left  int64
	fault error
}

// ErrWriter writes through to w for the first n bytes, then returns
// err on every subsequent Write — a disk that fills or fails mid-way
// through an artifact write (the crash-mid-write simulation).  A nil
// err defaults to ErrInjected.
func ErrWriter(w io.Writer, n int64, err error) io.Writer {
	if err == nil {
		err = ErrInjected
	}
	return &errWriter{w: w, left: n, fault: err}
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.left <= 0 {
		return 0, e.fault
	}
	if int64(len(p)) > e.left {
		// Partial success then failure: the bytes that "made it to
		// disk" are written so the on-disk prefix is realistic.
		n, err := e.w.Write(p[:e.left])
		e.left -= int64(n)
		if err != nil {
			return n, err
		}
		return n, e.fault
	}
	n, err := e.w.Write(p)
	e.left -= int64(n)
	return n, err
}

// SyncWriter is a file's write path: writes, then an fsync.  An
// *os.File is one.
type SyncWriter interface {
	io.Writer
	Sync() error
}

// failingFile fails a file's writes after a byte budget and its syncs
// outright.
type failingFile struct {
	io.Writer
	f       SyncWriter
	syncErr error
}

// FailingFile wraps f's write path: writes pass through for the first
// n bytes and then fail with err, as ErrWriter's do (the bytes before
// the fault reach the file — a disk that fills mid-record); a negative n
// never fails a write.  Sync fails with syncErr when it is non-nil —
// EIO from fsync — and syncs f otherwise.
func FailingFile(f SyncWriter, n int64, err, syncErr error) SyncWriter {
	w := io.Writer(f)
	if n >= 0 {
		w = ErrWriter(f, n, err)
	}
	return &failingFile{Writer: w, f: f, syncErr: syncErr}
}

func (ff *failingFile) Sync() error {
	if ff.syncErr != nil {
		return ff.syncErr
	}
	return ff.f.Sync()
}

// shortWriter silently drops everything past the first n bytes while
// reporting full success — the lying-disk variant of a crash: the
// writer believes the artifact is complete but only a prefix exists.
type shortWriter struct {
	w    io.Writer
	left int64
}

// ShortWriter writes through the first n bytes of traffic and silently
// discards the rest, still reporting success.  Loaders must catch the
// resulting truncation via the framing (trailer checksum), because the
// writer never saw an error.
func ShortWriter(w io.Writer, n int64) io.Writer {
	return &shortWriter{w: w, left: n}
}

func (s *shortWriter) Write(p []byte) (int, error) {
	take := int64(len(p))
	if take > s.left {
		take = s.left
	}
	if take > 0 {
		n, err := s.w.Write(p[:take])
		s.left -= int64(n)
		if err != nil {
			return n, err
		}
	}
	return len(p), nil
}

// bitFlipWriter XORs mask into the byte at offset as it streams by.
type bitFlipWriter struct {
	w      io.Writer
	offset int64
	mask   byte
	pos    int64
}

// BitFlipWriter writes p through to w with the byte at offset
// (0-based) XORed with mask — corruption introduced on the write path,
// e.g. a bad cable or controller.
func BitFlipWriter(w io.Writer, offset int64, mask byte) io.Writer {
	return &bitFlipWriter{w: w, offset: offset, mask: mask}
}

func (b *bitFlipWriter) Write(p []byte) (int, error) {
	if i := b.offset - b.pos; i >= 0 && i < int64(len(p)) {
		q := make([]byte, len(p))
		copy(q, p)
		q[i] ^= b.mask
		p = q
	}
	n, err := b.w.Write(p)
	b.pos += int64(n)
	return n, err
}
