package serve

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rwskit/internal/core"
)

// DefaultRetain is the number of versions a store keeps when the caller
// does not choose a capacity.
const DefaultRetain = 8

// ErrVersionNotFound reports a version spec that resolves to no retained
// version (evicted, never served, or an as-of instant before the first
// retained version).
var ErrVersionNotFound = errors.New("serve: no such version")

// VersionInfo describes one retained version for listings.
type VersionInfo struct {
	Version core.Version
	Sets    int
	Sites   int
	Current bool
	// Requests counts the queries resolved to this version so far (any
	// spelling: current, version=, as_of=, diff/churn endpoints).
	Requests uint64
}

// ChainEntry is one retained version: a snapshot paired with its
// descriptor. The store keeps one per retained revision, and Chain
// returns copies of them in as-of order.
type ChainEntry struct {
	Version core.Version
	Snap    *Snapshot
}

// Store is a bounded, concurrency-safe version store for snapshots: it
// retains the last N distinct list revisions keyed by content hash, so
// the serve plane can answer about any retained version — point-in-time
// (as-of) lookups, version-pinned queries, and diffs between arbitrary
// retained versions — not just the latest.
//
// The current version stays on a lock-free atomic pointer, so the hot
// path (every request without version=/as_of=) costs exactly what the
// single-snapshot server cost: one atomic load. The mutex guards only
// the version index and the diff memo, which are touched by swaps, by
// explicitly versioned requests and by diffs.
type Store struct {
	cur   atomic.Pointer[Snapshot]
	swaps atomic.Uint64

	mu      sync.RWMutex
	entries []ChainEntry // guarded by mu; insertion order, oldest first
	cap     int

	// diffs is the diff memo (diffcache.go): one slot per ordered pair
	// of retained hashes that Diff was asked for.
	diffs map[diffKey]*diffMemo // guarded by mu

	diffHits, diffMisses, diffInvalidations, diffComputes atomic.Uint64
}

// NewStore returns an empty store retaining up to capacity versions
// (capacity < 1 selects DefaultRetain). The store serves no queries
// until the first AddList.
func NewStore(capacity int) *Store {
	if capacity < 1 {
		capacity = DefaultRetain
	}
	return &Store{
		diffs: make(map[diffKey]*diffMemo),
		cap:   capacity,
	}
}

// NewStoreWith is NewStore; SnapshotOptions has no fields.
func NewStoreWith(capacity int, _ SnapshotOptions) *Store { return NewStore(capacity) }

// Current returns the snapshot answering unversioned queries. Lock-free;
// this is the request fast path. Nil only before the first AddList.
//
//rws:hotpath
//rws:allocfree
func (st *Store) Current() *Snapshot { return st.cur.Load() }

// Cap returns the maximum number of versions retained.
func (st *Store) Cap() int { return st.cap }

// Len returns the number of versions currently retained.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.entries)
}

// Swaps returns how many times the current version changed after the
// initial install.
func (st *Store) Swaps() uint64 { return st.swaps.Load() }

// AddList precomputes a snapshot for list, reusing the current
// snapshot's member fragments for the sets the lists share, and installs
// it as the current version. The precompute runs on the caller, never on
// the request path. A snapshot build cannot fail, so the error is always
// nil; the signature keeps it for existing callers.
//
// AddList fills in a version's defaults: a zero ver.ObservedAt becomes
// the time of the call, and a zero ver.AsOf becomes ver.ObservedAt. A
// non-empty ver.Hash must equal list.Hash(): AddList trusts it and
// hashes the list itself only when it is empty. A source's
// Meta.Version() carries the hash the source already computed to gate
// the fetch, so a delivered revision is hashed once. AddList computes no
// diff: a pair's diff is computed when Diff first asks for it.
func (st *Store) AddList(list *core.List, ver core.Version) (*Snapshot, error) {
	if ver.ObservedAt.IsZero() {
		ver.ObservedAt = time.Now()
	}
	if ver.AsOf.IsZero() {
		ver.AsOf = ver.ObservedAt
	}
	snap := buildSnapshot(list, ver.Hash, st.cur.Load())
	st.AddSnapshot(snap, ver)
	return snap, nil
}

// AddSnapshot installs an already-built snapshot as the current version,
// for callers that precompute off the swap path. Versions are keyed by
// content hash: re-adding a retained hash adopts the caller's snapshot
// instance and version descriptor in the existing slot instead of
// duplicating it, so a poller flapping between two revisions occupies
// two slots, not the whole store. Re-filing under the latest provenance
// keeps as-of resolution consistent with the current plane: after a
// flap back to old content, AsOf(now) answers with the version
// unversioned requests are served from, at the cost of the revision's
// earlier as-of point (a bounded content-keyed store cannot represent
// re-install intervals). When the store is full, the oldest non-current
// version is evicted. ver is stored as given, apart from its Hash.
func (st *Store) AddSnapshot(snap *Snapshot, ver core.Version) {
	ver.Hash = snap.hash
	st.mu.Lock()
	defer st.mu.Unlock()
	if e := st.entryLocked(snap.hash); e != nil {
		if e.Snap != snap {
			// Adopting a fresh snapshot instance for a retained hash:
			// carry the hit counter over so per-version metrics survive a
			// re-add.
			snap.requests.Add(e.Snap.requests.Load())
		}
		e.Version, e.Snap = ver, snap
	} else {
		st.entries = append(st.entries, ChainEntry{Version: ver, Snap: snap})
	}
	if prev := st.cur.Swap(snap); prev != nil && prev.hash != snap.hash {
		st.swaps.Add(1)
	}
	st.evictLocked()
}

// entryLocked returns the retained entry for hash, nil when there is
// none. A linear scan: the store retains a handful of versions.
//
//rws:locked mu
func (st *Store) entryLocked(hash string) *ChainEntry {
	for i := range st.entries {
		if st.entries[i].Version.Hash == hash {
			return &st.entries[i]
		}
	}
	return nil
}

// evictLocked drops the oldest non-current versions until the store is
// within capacity. Callers hold st.mu; the current version is never
// evicted, so capacity 1 degenerates to the single-snapshot plane.
//
//rws:locked mu
func (st *Store) evictLocked() {
	cur := st.cur.Load()
	for len(st.entries) > st.cap {
		i := slices.IndexFunc(st.entries, func(e ChainEntry) bool { return e.Snap != cur })
		if i < 0 {
			return
		}
		hash := st.entries[i].Version.Hash
		st.entries = slices.Delete(st.entries, i, i+1)
		// Drop every memoized diff touching the evicted version: no
		// retained version can request it any more, and the memo must
		// not pin memory for hashes the store no longer serves.
		st.dropDiffsLocked(hash)
	}
}

// Chain returns the retained versions from one version to another,
// inclusive, ordered by as-of time (insertion order breaks ties) — the
// walk the churn plane composes diffs over. A zero-hash from means "the
// oldest retained version" and a zero-hash to means "the current
// version", both resolved under the same lock as the walk, so a caller
// defaulting its endpoints can never lose them to a concurrent eviction
// between resolve and walk. A named endpoint having been evicted wraps
// ErrVersionNotFound; a from newer than to is an ordering error the
// handler maps to a 400.
func (st *Store) Chain(from, to core.Version) ([]ChainEntry, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if len(st.entries) == 0 {
		return nil, fmt.Errorf("%w: store is empty", ErrVersionNotFound)
	}
	if from.Hash != "" && st.entryLocked(from.Hash) == nil {
		return nil, fmt.Errorf("%w: from version %s was evicted", ErrVersionNotFound, from.ID())
	}
	if to.Hash != "" && st.entryLocked(to.Hash) == nil {
		return nil, fmt.Errorf("%w: to version %s was evicted", ErrVersionNotFound, to.ID())
	}
	cur := st.cur.Load()
	ordered := slices.Clone(st.entries)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].Version.AsOf.Before(ordered[j].Version.AsOf)
	})
	fromIdx, toIdx := -1, -1
	if from.Hash == "" {
		fromIdx = 0
	}
	for i, ce := range ordered {
		if from.Hash != "" && ce.Version.Hash == from.Hash {
			fromIdx = i
		}
		if to.Hash != "" && ce.Version.Hash == to.Hash {
			toIdx = i
		}
		if to.Hash == "" && ce.Snap == cur {
			toIdx = i
		}
	}
	if fromIdx < 0 || toIdx < 0 {
		// Unreachable for named hashes (checked above) and for defaults
		// (the current snapshot is always retained); fail closed rather
		// than panic if that invariant ever breaks.
		return nil, fmt.Errorf("%w: chain endpoint not retained", ErrVersionNotFound)
	}
	if fromIdx > toIdx {
		fromVer, toVer := ordered[fromIdx].Version, ordered[toIdx].Version
		return nil, fmt.Errorf("from version %s (as of %s) is newer than to version %s (as of %s)",
			fromVer.ID(), fromVer.AsOf.Format("2006-01-02"), toVer.ID(), toVer.AsOf.Format("2006-01-02"))
	}
	return ordered[fromIdx : toIdx+1], nil
}

// versionOf returns the descriptor snap's content is retained under,
// false once it has been evicted.
func (st *Store) versionOf(snap *Snapshot) (core.Version, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	e := st.entryLocked(snap.hash)
	if e == nil {
		return core.Version{}, false
	}
	return e.Version, true
}

// Versions lists the retained versions, oldest first.
func (st *Store) Versions() []VersionInfo {
	st.mu.RLock()
	defer st.mu.RUnlock()
	cur := st.cur.Load()
	out := make([]VersionInfo, 0, len(st.entries))
	for _, e := range st.entries {
		out = append(out, VersionInfo{
			Version:  e.Version,
			Sets:     e.Snap.NumSets(),
			Sites:    e.Snap.NumSites(),
			Current:  e.Snap == cur,
			Requests: e.Snap.requests.Load(),
		})
	}
	return out
}

// ByHash resolves a version by content-hash prefix (case-sensitive hex,
// at least 4 characters, or the full hash). "current" and "" resolve to
// the current version. An ambiguous prefix is an error naming the
// candidates; an unknown one wraps ErrVersionNotFound.
func (st *Store) ByHash(spec string) (*Snapshot, core.Version, error) {
	if spec == "" || spec == "current" {
		// AddSnapshot publishes the pointer inside the write lock, so one
		// locked read pairs the current snapshot with its own descriptor.
		var ver core.Version
		st.mu.RLock()
		cur := st.cur.Load()
		if cur != nil {
			ver = st.entryLocked(cur.hash).Version
		}
		st.mu.RUnlock()
		if cur == nil {
			return nil, core.Version{}, fmt.Errorf("%w: store is empty", ErrVersionNotFound)
		}
		return cur, ver, nil
	}
	if len(spec) < 4 {
		return nil, core.Version{}, fmt.Errorf("version %q too short: want at least 4 hash characters", spec)
	}
	if !isHexLower(spec) {
		return nil, core.Version{}, fmt.Errorf("version %q is not a hex hash prefix", spec)
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	var found *ChainEntry
	for i := range st.entries {
		e := &st.entries[i]
		if strings.HasPrefix(e.Version.Hash, spec) {
			if found != nil {
				return nil, core.Version{}, fmt.Errorf("version %q is ambiguous (%s and %s)", spec, found.Version.ID(), e.Version.ID())
			}
			found = e
		}
	}
	if found == nil {
		return nil, core.Version{}, fmt.Errorf("%w: %s", ErrVersionNotFound, spec)
	}
	return found.Snap, found.Version, nil
}

// AsOf resolves the version in force at t: the retained version with the
// greatest AsOf not after t (insertion order breaks ties). An instant
// before every retained version wraps ErrVersionNotFound.
func (st *Store) AsOf(t time.Time) (*Snapshot, core.Version, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var found *ChainEntry
	for i := range st.entries {
		e := &st.entries[i]
		if e.Version.AsOf.After(t) {
			continue
		}
		if found == nil || !e.Version.AsOf.Before(found.Version.AsOf) {
			found = e
		}
	}
	if found == nil {
		return nil, core.Version{}, fmt.Errorf("%w: no version as of %s", ErrVersionNotFound, t.Format(time.RFC3339))
	}
	return found.Snap, found.Version, nil
}

// Resolve resolves a version spec of any spelling: "" or "current", an
// as-of instant ("2023-04", "2023-04-26", or RFC 3339), or a version
// hash prefix. The diff endpoint and CLI accept this form so "diff
// 2023-01 current" works without copying hashes around.
func (st *Store) Resolve(spec string) (*Snapshot, core.Version, error) {
	if t, ok := parseAsOf(spec); ok {
		return st.AsOf(t)
	}
	return st.ByHash(spec)
}

// parseAsOf parses the accepted as-of spellings: a month ("2023-04",
// meaning the start of that month), a date ("2023-04-26"), or a full
// RFC 3339 instant.
func parseAsOf(s string) (time.Time, bool) {
	for _, layout := range []string{"2006-01", "2006-01-02", time.RFC3339} {
		if t, err := time.Parse(layout, s); err == nil {
			return t, true
		}
	}
	return time.Time{}, false
}

// isHexLower reports whether s is entirely lowercase hex, the alphabet
// of list content hashes.
//
//rws:allocfree
func isHexLower(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
