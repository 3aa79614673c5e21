package serve

import (
	"sync"

	"rwskit/internal/core"
)

// diffKey identifies one memoized diff by its endpoint content hashes.
// Hash-keyed slots are content-addressed: a memoized diff is correct
// forever, so dropping the slots of an evicted version is memory
// hygiene, never a correctness need.
type diffKey struct {
	from, to string
}

// diffMemo is one slot of the store's diff memo. The first caller to
// run once computes d; every other caller, whether it arrived while the
// computation was in flight or after, waits on once and shares the
// result. A slot exists only while both of its hashes are retained, so
// the memo holds at most n(n−1) slots for a store retaining n versions.
type diffMemo struct {
	once sync.Once
	d    core.Diff
}

// Diff returns the member-level diff from one retained snapshot to
// another, memoized by content-hash pair: the first request per pair
// computes core.DiffLists, every later one shares that result.
// Identical endpoints short-circuit to the empty diff.
//
// A request that finds a slot, filled or in flight, counts a hit; one
// that registers a slot, or whose pair is no longer retained (evicted
// between resolve and diff), counts a miss. Concurrent requests for a
// cold pair share one slot, so a thundering herd costs one DiffLists run.
func (st *Store) Diff(from, to *Snapshot) core.Diff {
	if from.hash == to.hash {
		return core.Diff{}
	}
	k := diffKey{from: from.hash, to: to.hash}
	// A hit takes only the read lock; a write-locked lookup costs a warm
	// diff ~40% more.
	st.mu.RLock()
	m := st.diffs[k]
	st.mu.RUnlock()
	if m != nil {
		st.diffHits.Add(1)
		return st.fill(m, from, to)
	}
	st.mu.Lock()
	m, hit := st.diffs[k]
	if !hit && st.retainedLocked(from.hash, to.hash) {
		m = &diffMemo{}
		st.diffs[k] = m
	}
	st.mu.Unlock()
	if hit {
		st.diffHits.Add(1)
	} else {
		st.diffMisses.Add(1)
	}
	if m == nil {
		st.diffComputes.Add(1)
		return core.DiffLists(from.list, to.list)
	}
	return st.fill(m, from, to)
}

// fill computes m's diff once and seeds the inverse pair as an
// already-filled slot when none exists. It never calls into another
// slot's once: two callers filling a→b and b→a would wait on each other.
func (st *Store) fill(m *diffMemo, from, to *Snapshot) core.Diff {
	m.once.Do(func() {
		st.diffComputes.Add(1)
		m.d = core.DiffLists(from.list, to.list)
		inv := &diffMemo{d: m.d.Inverse()}
		inv.once.Do(func() {}) // filled: its callers must not recompute
		ik := diffKey{from: to.hash, to: from.hash}
		st.mu.Lock()
		if _, ok := st.diffs[ik]; !ok && st.retainedLocked(from.hash, to.hash) {
			st.diffs[ik] = inv
		}
		st.mu.Unlock()
	})
	return m.d
}

// retainedLocked reports whether both hashes are retained versions.
//
//rws:locked mu
func (st *Store) retainedLocked(a, b string) bool {
	_, aok := st.byHash[a]
	_, bok := st.byHash[b]
	return aok && bok
}

// dropDiffsLocked deletes every memo slot touching hash, the store's
// eviction hook.
//
//rws:locked mu
func (st *Store) dropDiffsLocked(hash string) {
	for k := range st.diffs {
		if k.from == hash || k.to == hash {
			delete(st.diffs, k)
			st.diffInvalidations.Add(1)
		}
	}
}

// DiffCacheMetrics reports the diff memo's counters in a /v1/metrics
// response.
type DiffCacheMetrics struct {
	// Entries counts the memo's slots, filled or in flight.
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	// Invalidations counts slots dropped because a version they
	// referenced left the store.
	Invalidations uint64 `json:"invalidations"`
	// Computes counts real core.DiffLists runs, swap-time fills
	// included; it stays at one per cold pair no matter how many
	// concurrent requests raced for it.
	Computes uint64 `json:"computes"`
}

// diffMetrics snapshots the memo's counters.
func (st *Store) diffMetrics() DiffCacheMetrics {
	st.mu.RLock()
	n := len(st.diffs)
	st.mu.RUnlock()
	return DiffCacheMetrics{
		Entries:       n,
		Hits:          st.diffHits.Load(),
		Misses:        st.diffMisses.Load(),
		Invalidations: st.diffInvalidations.Load(),
		Computes:      st.diffComputes.Load(),
	}
}
