package core

import "scaleshift/internal/store"

// OpenOrRebuildFile opens the index artifact at path over st, or builds
// the index from st when the artifact cannot be served as it is.  An
// index is derived state — every feature point is the transform of a
// window of the checksummed store, and Lemma 2 makes the index answer
// exactly what a scan answers — so an artifact that does not map, fails
// a check (a checksum, truncation, a structural check), was built
// over a different store, or is in a layout this code does not serve (an
// older arena version, an MBR directory: ErrVersion) costs one bulk
// build (Build, on every CPU) and nothing else.
//
// An artifact written before the store grew is served, and the windows
// the store gained go to the delta, so the index covers the store.
//
// rebuilt is why the artifact was not used, nil when it was; it matches
// ErrChecksum, ErrTruncated and ErrVersion with errors.Is.  err is the
// build's own failure (invalid opts), and only that.  A rebuilt index is
// not written anywhere: saving it over path is the caller's choice.
func OpenOrRebuildFile(path string, st *store.Store, opts Options) (ix *Index, rebuilt, err error) {
	if ix, rebuilt = LoadIndexFile(path, st); rebuilt == nil {
		if rebuilt = ix.IndexStore(); rebuilt == nil {
			return ix, nil, nil
		}
		ix.Close()
	}
	if ix, err = NewIndex(st, opts); err != nil {
		return nil, rebuilt, err
	}
	if err = ix.Build(); err != nil {
		return nil, rebuilt, err
	}
	return ix, rebuilt, nil
}
