package serve

import (
	"errors"
	"fmt"
	"sort"
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

// storeEntry pairs one retained snapshot with its version descriptor.
type storeEntry struct {
	ver  core.Version
	snap *Snapshot
}

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

// ChainEntry is one link of a version chain walk: a retained snapshot
// paired with its descriptor, in as-of order.
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
	entries []*storeEntry          // guarded by mu; insertion order, oldest first
	byHash  map[string]*storeEntry // guarded by mu
	cap     int

	// diffs is the diff memo (diffcache.go): one slot per ordered pair
	// of retained hashes that was asked for or swapped through.
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
		byHash: make(map[string]*storeEntry, capacity),
		diffs:  make(map[diffKey]*diffMemo),
		cap:    capacity,
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
// the request path. It fails only if baking a response body fails; then
// nothing is installed and the previous current version keeps serving.
//
// A non-empty ver.Hash must equal list.Hash(): AddList trusts it and
// hashes the list itself only when it is empty. A source's Meta.Version()
// carries the hash the source already computed to gate the fetch, so a
// delivered revision is hashed once.
func (st *Store) AddList(list *core.List, ver core.Version) (*Snapshot, error) {
	snap, err := buildSnapshot(list, ver.Hash, st.cur.Load())
	if err != nil {
		return nil, err
	}
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
// version is evicted.
func (st *Store) AddSnapshot(snap *Snapshot, ver core.Version) {
	ver.Hash = snap.hash
	st.mu.Lock()
	e, ok := st.byHash[snap.hash]
	if ok {
		if e.snap != snap {
			// Adopting a fresh snapshot instance for a retained hash:
			// carry the hit counter over so per-version metrics survive a
			// re-add.
			snap.requests.Add(e.snap.requests.Load())
		}
		e.snap = snap
		e.ver = ver
	} else {
		e = &storeEntry{ver: ver, snap: snap}
		st.entries = append(st.entries, e)
		st.byHash[snap.hash] = e
	}
	prev := st.cur.Load()
	st.cur.Store(snap)
	st.evictLocked()
	// Swap-time adjacent-pair precompute: the superseded→current diff is
	// the pair the watcher log, /v1/diff and churn walks ask for first.
	// Its slot is registered here, inside the install's locked region,
	// and filled on the swap caller after unlocking — never on the request
	// path. A pair a flapping source already left in the memo is not
	// recomputed, and a retain-1 store, which supersedes and evicts prev
	// in one motion, registers nothing.
	var fill *diffMemo
	if prev != nil && prev.hash != snap.hash {
		st.swaps.Add(1)
		k := diffKey{from: prev.hash, to: snap.hash}
		if _, ok := st.diffs[k]; !ok && st.retainedLocked(prev.hash, snap.hash) {
			fill = &diffMemo{}
			st.diffs[k] = fill
		}
	}
	st.mu.Unlock()
	if fill != nil {
		st.fill(fill, prev, snap)
	}
}

// evictLocked drops the oldest non-current versions until the store is
// within capacity. Callers hold st.mu; the current version is never
// evicted, so capacity 1 degenerates to the single-snapshot plane.
//
//rws:locked mu
func (st *Store) evictLocked() {
	cur := st.cur.Load()
	for len(st.entries) > st.cap {
		evicted := false
		for i, e := range st.entries {
			if e.snap == cur {
				continue
			}
			delete(st.byHash, e.ver.Hash)
			st.entries = append(st.entries[:i], st.entries[i+1:]...)
			// Drop every memoized diff touching the evicted version: no
			// retained version can request it any more, and the memo must
			// not pin memory for hashes the store no longer serves.
			st.dropDiffsLocked(e.ver.Hash)
			evicted = true
			break
		}
		if !evicted {
			return
		}
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
	if from.Hash != "" {
		if _, ok := st.byHash[from.Hash]; !ok {
			return nil, fmt.Errorf("%w: from version %s was evicted", ErrVersionNotFound, from.ID())
		}
	}
	if to.Hash != "" {
		if _, ok := st.byHash[to.Hash]; !ok {
			return nil, fmt.Errorf("%w: to version %s was evicted", ErrVersionNotFound, to.ID())
		}
	}
	cur := st.cur.Load()
	ordered := make([]ChainEntry, 0, len(st.entries))
	for _, e := range st.entries {
		ordered = append(ordered, ChainEntry{Version: e.ver, Snap: e.snap})
	}
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
	e, ok := st.byHash[snap.hash]
	if !ok {
		return core.Version{}, false
	}
	return e.ver, true
}

// Versions lists the retained versions, oldest first.
func (st *Store) Versions() []VersionInfo {
	st.mu.RLock()
	defer st.mu.RUnlock()
	cur := st.cur.Load()
	out := make([]VersionInfo, 0, len(st.entries))
	for _, e := range st.entries {
		out = append(out, VersionInfo{
			Version:  e.ver,
			Sets:     e.snap.NumSets(),
			Sites:    e.snap.NumSites(),
			Current:  e.snap == cur,
			Requests: e.snap.requests.Load(),
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
			ver = st.byHash[cur.hash].ver
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
	var found *storeEntry
	for _, e := range st.entries {
		if len(spec) <= len(e.ver.Hash) && e.ver.Hash[:len(spec)] == spec {
			if found != nil {
				return nil, core.Version{}, fmt.Errorf("version %q is ambiguous (%s and %s)", spec, found.ver.ID(), e.ver.ID())
			}
			found = e
		}
	}
	if found == nil {
		return nil, core.Version{}, fmt.Errorf("%w: %s", ErrVersionNotFound, spec)
	}
	return found.snap, found.ver, nil
}

// AsOf resolves the version in force at t: the retained version with the
// greatest AsOf not after t (insertion order breaks ties). An instant
// before every retained version wraps ErrVersionNotFound.
func (st *Store) AsOf(t time.Time) (*Snapshot, core.Version, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var found *storeEntry
	for _, e := range st.entries {
		if e.ver.AsOf.After(t) {
			continue
		}
		if found == nil || !e.ver.AsOf.Before(found.ver.AsOf) {
			found = e
		}
	}
	if found == nil {
		return nil, core.Version{}, fmt.Errorf("%w: no version as of %s", ErrVersionNotFound, t.Format(time.RFC3339))
	}
	return found.snap, found.ver, nil
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
