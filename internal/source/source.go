// Package source is the pluggable list-ingestion plane: where a list
// snapshot comes from, and when it has changed. The RWS list is a living
// artifact — the paper measures it evolving through GitHub governance —
// so a serving deployment must be able to follow a remote origin, not
// just a local file.
//
// A Source produces *core.List revisions with change detection built in:
// Fetch returns ErrNotModified when the list is unchanged since the
// previous successful Fetch, so pollers pay the cheapest possible price
// for "nothing happened" (one stat(2) for files, one conditional GET
// answered 304 for HTTP). Every Source also gates on the list content
// hash, so a rewrite with identical semantics (touch(1), a re-serialized
// upstream body) never reports a change.
//
// Two implementations ship today — FileSource and HTTPSource — and the
// Watcher drives either on a ticker, delivering Swap events (new list +
// provenance) to a consumer such as serve.Server. Future backends (object stores, git checkouts, sharded
// fan-in) are just more Sources.
package source

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"time"

	"rwskit/internal/core"
)

// ErrNotModified is returned by Fetch when the source's content has not
// changed since the previous successful Fetch. It is the common case on a
// poll tick and is not a failure.
var ErrNotModified = errors.New("source: list not modified")

// Meta records the provenance of a fetched list revision.
type Meta struct {
	// Location identifies the source (file path or URL).
	Location string
	// Hash is the list's semantic content hash (core.List.Hash).
	Hash string

	// FetchedAt is when the revision was obtained.
	FetchedAt time.Time

	// ETag and LastModified are the HTTP validators the revision was
	// served with (empty for file sources).
	ETag         string
	LastModified string

	// ModTime and Size describe the file the revision was read from
	// (zero for HTTP sources).
	ModTime time.Time
	Size    int64

	// UpstreamVersion, UpstreamAsOf, and UpstreamSwappedAt are the
	// replication headers (X-RWS-Version, X-RWS-As-Of, X-RWS-Swapped-At)
	// an rws-serve leader attaches to its /v1/list export. They are
	// empty/zero for any other origin; when present, this revision was
	// fetched from another serve node and the consumer is a follower
	// (see Follows).
	UpstreamVersion   string
	UpstreamAsOf      time.Time
	UpstreamSwappedAt time.Time
}

// Follows reports whether the revision came from another rws-serve
// node's /v1/list export — the follower-detection signal: only a serve
// leader stamps X-RWS-Version on its responses.
func (m Meta) Follows() bool { return m.UpstreamVersion != "" }

// Version derives the core.Version descriptor a version store files this
// revision under: the content hash, the source location, and the best
// available logical (as-of) time — the leader-advertised as-of (a
// follower inherits the leader's logical clock, so the version chain
// stays aligned across the tier), the file mtime, the parsed HTTP
// Last-Modified, or the fetch time when the source offers nothing
// better.
func (m Meta) Version() core.Version {
	asOf := m.FetchedAt
	switch {
	case !m.UpstreamAsOf.IsZero():
		asOf = m.UpstreamAsOf
	case !m.ModTime.IsZero():
		asOf = m.ModTime
	case m.LastModified != "":
		if t, err := http.ParseTime(m.LastModified); err == nil {
			asOf = t
		}
	}
	return core.Version{
		Hash:       m.Hash,
		Source:     m.Location,
		ObservedAt: m.FetchedAt,
		AsOf:       asOf,
	}
}

// Source produces list revisions with change detection. Implementations
// must be safe for concurrent use; in practice a single Watcher goroutine
// drives each Source.
type Source interface {
	// Fetch returns the current list when it differs from the previous
	// successful Fetch, and ErrNotModified when it does not. The first
	// Fetch on a fresh Source always returns the list (there is nothing
	// to be unchanged from).
	Fetch(ctx context.Context) (*core.List, Meta, error)

	// Invalidate drops the cheap freshness gates — the file stat gate,
	// the HTTP conditional-request validators — so the next Fetch
	// re-reads the source in full. The content-hash gate stays: even a
	// forced re-read of identical content reports ErrNotModified. This is
	// the SIGHUP path.
	Invalidate()

	// Location identifies the source for logs.
	Location() string
}

// Open returns the Source for a list specifier: an http:// or https://
// URL opens an HTTPSource with default settings, anything else a
// FileSource on that path.
func Open(spec string) Source {
	if strings.HasPrefix(spec, "http://") || strings.HasPrefix(spec, "https://") {
		return NewHTTPSource(spec, HTTPConfig{})
	}
	return NewFileSource(spec)
}
