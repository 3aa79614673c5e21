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
// another, memoized by content-hash pair: the first request per ordered
// pair computes core.DiffLists, every later one shares that result.
// Nothing fills a slot ahead of its first request: a swap's adjacent
// pair is warmed by the swap log's own Diff call (Server.SwapDeliver),
// and the reverse of a memoized pair is computed when it is first asked
// for. Identical endpoints short-circuit to the empty diff.
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
	if !hit && st.entryLocked(from.hash) != nil && st.entryLocked(to.hash) != nil {
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

// fill computes m's diff, the from→to pair, once; every caller of the
// slot shares the result.
func (st *Store) fill(m *diffMemo, from, to *Snapshot) core.Diff {
	m.once.Do(func() {
		st.diffComputes.Add(1)
		m.d = core.DiffLists(from.list, to.list)
	})
	return m.d
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
	// Computes counts real core.DiffLists runs; it stays at one per
	// cold pair no matter how many concurrent requests raced for it.
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
