package source

import (
	"context"
	"os"
	"sync"
	"time"

	"rwskit/internal/core"
)

// FileSource reads a list from a local JSON file. Polls are gated twice:
// on the file's (mtime, size), so an unchanged file costs one stat(2),
// and on the list content hash, so a rewrite with identical content (or
// a touch(1)) never reports a change. Invalidate drops the stat gate but
// not the hash gate — exactly the SIGHUP contract rws-serve had when
// this logic lived in its reloader. Each read is parsed against the last
// one parsed (core.ParseJSONFrom): a set whose bytes have that revision's
// span digest is taken without being decoded, consecutive revisions share
// every unchanged set, and Revision.Hash frames only the sets that
// changed.
type FileSource struct {
	path string

	mu      sync.Mutex
	mtime   time.Time      // guarded by mu
	size    int64          // guarded by mu
	hash    string         // guarded by mu
	last    *core.Revision // guarded by mu; its list hashes to hash
	statted bool           // guarded by mu; a successful read recorded mtime/size
}

// NewFileSource returns a FileSource reading path. No I/O happens until
// the first Fetch.
func NewFileSource(path string) *FileSource {
	return &FileSource{path: path}
}

// Location implements Source.
func (f *FileSource) Location() string { return f.path }

// Invalidate implements Source: the next Fetch skips the stat gate and
// re-reads the file.
func (f *FileSource) Invalidate() {
	f.mu.Lock()
	f.statted = false
	f.mu.Unlock()
}

// Fetch implements Source.
func (f *FileSource) Fetch(ctx context.Context) (*core.List, Meta, error) {
	if err := ctx.Err(); err != nil {
		return nil, Meta{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()

	// Stat before reading: if a writer lands between the stat and the
	// read, the recorded mtime is older than the file's, so the next poll
	// re-reads (the safe direction) instead of pairing the new mtime with
	// the old content and skipping forever.
	fi, err := os.Stat(f.path)
	if err != nil {
		return nil, Meta{}, err
	}
	if f.statted && fi.ModTime().Equal(f.mtime) && fi.Size() == f.size {
		return nil, Meta{}, ErrNotModified
	}
	data, err := os.ReadFile(f.path)
	if err != nil {
		return nil, Meta{}, err
	}
	rev, err := core.ParseJSONFrom(data, f.last)
	if err != nil {
		return nil, Meta{}, err
	}
	f.mtime, f.size, f.statted = fi.ModTime(), fi.Size(), true
	// A rewrite with identical content still becomes the parse base: see
	// HTTPSource.fetchOnce.
	h := rev.Hash()
	f.last = rev
	if h == f.hash {
		return nil, Meta{}, ErrNotModified
	}
	f.hash = h
	return rev.List(), Meta{
		Location:  f.path,
		Hash:      h,
		FetchedAt: time.Now(),
		ModTime:   fi.ModTime(),
		Size:      fi.Size(),
	}, nil
}
