package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rwskit/internal/core"
)

// listWithPrimary builds a one-set list whose content (and hence hash)
// is unique per name.
func listWithPrimary(t *testing.T, name string) *core.List {
	t.Helper()
	list, err := core.ParseJSON([]byte(fmt.Sprintf(
		`{"sets":[{"primary":"https://%s.com","associatedSites":["https://%s-blog.com"],"rationaleBySite":{"https://%s-blog.com":"same brand"}}]}`,
		name, name, name)))
	if err != nil {
		t.Fatal(err)
	}
	return list
}

// mustAdd installs list into st under ver, failing the test if AddList
// breaks its contract of a nil error.
func mustAdd(tb testing.TB, st *Store, list *core.List, ver core.Version) *Snapshot {
	tb.Helper()
	snap, err := st.AddList(list, ver)
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// swapList installs list as s's current version, the way a watcher
// delivery does. It reports a non-nil AddList error with Errorf, so it
// is safe to call from any goroutine.
func swapList(tb testing.TB, s *Server, list *core.List) {
	tb.Helper()
	if _, err := s.store.AddList(list, core.Version{Source: "swap", ObservedAt: time.Now(), AsOf: time.Now()}); err != nil {
		tb.Errorf("swap: %v", err)
	}
}

// currentVersion returns st's current version descriptor.
func currentVersion(st *Store) core.Version {
	_, ver, _ := st.ByHash("current")
	return ver
}

// memoKeys returns the keys of st's diff memo.
func memoKeys(st *Store) []diffKey {
	st.mu.RLock()
	defer st.mu.RUnlock()
	keys := make([]diffKey, 0, len(st.diffs))
	for k := range st.diffs {
		keys = append(keys, k)
	}
	return keys
}

func monthVersion(month string) core.Version {
	t, _ := time.Parse("2006-01", month)
	return core.Version{Source: "test:" + month, ObservedAt: t, AsOf: t}
}

func TestStoreAddCurrentAndSwaps(t *testing.T) {
	st := NewStore(4)
	if st.Current() != nil || st.Len() != 0 {
		t.Fatal("fresh store should be empty")
	}
	a := mustAdd(t, st, listWithPrimary(t, "alpha"), monthVersion("2023-01"))
	if st.Current() != a || st.Swaps() != 0 {
		t.Errorf("after first AddList: current=%p swaps=%d, want the snapshot and 0 swaps", st.Current(), st.Swaps())
	}
	b := mustAdd(t, st, listWithPrimary(t, "beta"), monthVersion("2023-02"))
	if st.Current() != b || st.Swaps() != 1 || st.Len() != 2 {
		t.Errorf("after second AddList: swaps=%d len=%d", st.Swaps(), st.Len())
	}
	if ver := currentVersion(st); ver.Hash != b.Hash() || ver.Source != "test:2023-02" {
		t.Errorf("current version = %+v", ver)
	}
}

// TestAddListVersionDefaults: AddList fills a zero ObservedAt with the
// install time and a zero AsOf with ObservedAt, and keeps an AsOf that
// is set.
func TestAddListVersionDefaults(t *testing.T) {
	st := NewStore(4)
	before := time.Now()
	mustAdd(t, st, listWithPrimary(t, "alpha"), core.Version{Source: "zero"})
	ver := currentVersion(st)
	if ver.ObservedAt.Before(before) || ver.ObservedAt.After(time.Now()) || !ver.AsOf.Equal(ver.ObservedAt) {
		t.Errorf("defaulted version = %+v, want ObservedAt at the install and AsOf equal to it", ver)
	}
	jan := monthVersion("2023-01").AsOf
	mustAdd(t, st, listWithPrimary(t, "beta"), core.Version{Source: "as-of only", AsOf: jan})
	if ver := currentVersion(st); ver.ObservedAt.IsZero() || !ver.AsOf.Equal(jan) {
		t.Errorf("version with AsOf set = %+v, want the given AsOf and a filled ObservedAt", ver)
	}
}

// TestStoreDedupByHash: re-adding a retained content hash must not grow
// the store, must not count a swap when it is already current, and must
// re-file the revision under its latest provenance so as-of resolution
// stays consistent with the current plane.
func TestStoreDedupByHash(t *testing.T) {
	st := NewStore(4)
	list := listWithPrimary(t, "alpha")
	mustAdd(t, st, list, monthVersion("2023-01"))
	mustAdd(t, st, list, monthVersion("2023-06"))
	if st.Len() != 1 {
		t.Errorf("len = %d after re-adding the same content, want 1", st.Len())
	}
	if st.Swaps() != 0 {
		t.Errorf("swaps = %d for an identical re-add, want 0", st.Swaps())
	}
	ver := currentVersion(st)
	if ver.Source != "test:2023-06" || ver.Hash == "" {
		t.Errorf("provenance = %+v, want the latest source with the hash filled in", ver)
	}
	// Flapping back to older content re-installs the retained entry
	// under the flap's provenance: AsOf(now) must agree with the
	// unversioned plane, not resolve to the superseded middle version.
	other := listWithPrimary(t, "beta")
	mustAdd(t, st, other, monthVersion("2023-02"))
	mustAdd(t, st, list, monthVersion("2023-03"))
	if st.Len() != 2 || st.Swaps() != 2 {
		t.Errorf("after flapping: len=%d swaps=%d, want 2/2", st.Len(), st.Swaps())
	}
	now, _ := parseAsOf("2023-12")
	snap, ver, err := st.AsOf(now)
	if err != nil || snap != st.Current() || ver.Source != "test:2023-03" {
		t.Errorf("AsOf(now) after flap = %+v, %v, want the current (re-added) version", ver, err)
	}
}

// TestStoreEviction: over capacity, the oldest non-current version goes;
// the current version is never evicted, even when it is the oldest.
func TestStoreEviction(t *testing.T) {
	st := NewStore(3)
	hashes := make([]string, 0, 5)
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		snap := mustAdd(t, st, listWithPrimary(t, name), monthVersion(fmt.Sprintf("2023-%02d", i+1)))
		hashes = append(hashes, snap.Hash())
	}
	if st.Len() != 3 {
		t.Fatalf("len = %d, want capacity 3", st.Len())
	}
	for _, h := range hashes[:2] {
		if _, _, err := st.ByHash(h); !errors.Is(err, ErrVersionNotFound) {
			t.Errorf("evicted version %.8s: err = %v, want ErrVersionNotFound", h, err)
		}
	}
	for _, h := range hashes[2:] {
		if _, _, err := st.ByHash(h); err != nil {
			t.Errorf("retained version %.8s: %v", h, err)
		}
	}

	// Re-installing the oldest retained version as current does not
	// refresh its age: once superseded again, it is still the first to
	// go. Eviction order is insertion order, not recency of currency.
	cur, _, err := st.ByHash(hashes[2])
	if err != nil {
		t.Fatal(err)
	}
	st.AddSnapshot(cur, monthVersion("2023-08"))
	if st.Current() != cur || st.Len() != 3 {
		t.Fatalf("re-install: current=%p len=%d", st.Current(), st.Len())
	}
	mustAdd(t, st, listWithPrimary(t, "f"), monthVersion("2023-09"))
	if _, _, err := st.ByHash(hashes[2]); !errors.Is(err, ErrVersionNotFound) {
		t.Errorf("superseded oldest version should be evicted first: %v", err)
	}

	// Capacity 1 degenerates to the single-snapshot plane.
	one := NewStore(1)
	mustAdd(t, one, listWithPrimary(t, "x"), monthVersion("2023-01"))
	mustAdd(t, one, listWithPrimary(t, "y"), monthVersion("2023-02"))
	if one.Len() != 1 || one.Current().NumSets() != 1 {
		t.Errorf("capacity-1 store: len=%d", one.Len())
	}
}

func TestStoreByHashResolution(t *testing.T) {
	st := NewStore(4)
	snap := mustAdd(t, st, listWithPrimary(t, "alpha"), monthVersion("2023-01"))
	full := snap.Hash()

	for _, spec := range []string{full, full[:12], full[:4], "", "current"} {
		got, ver, err := st.ByHash(spec)
		if err != nil || got != snap || ver.Hash != full {
			t.Errorf("ByHash(%q) = %p, %+v, %v", spec, got, ver, err)
		}
	}
	if _, _, err := st.ByHash("abc"); err == nil {
		t.Error("3-char prefix should be rejected as too short")
	}
	if _, _, err := st.ByHash("ABCDEF"); err == nil {
		t.Error("non-lowercase-hex spec should be rejected")
	}
	if _, _, err := st.ByHash("0000deadbeef"); !errors.Is(err, ErrVersionNotFound) {
		t.Errorf("unknown prefix: err = %v, want ErrVersionNotFound", err)
	}
}

// TestStoreByHashAmbiguous fabricates two entries sharing a 4-char
// prefix (real hashes almost never collide that early) to pin the
// ambiguity error.
func TestStoreByHashAmbiguous(t *testing.T) {
	st := NewStore(4)
	for _, h := range []string{"deadbeef0000", "deadbeef1111"} {
		st.entries = append(st.entries, ChainEntry{Version: core.Version{Hash: h}, Snap: &Snapshot{hash: h}})
	}
	st.cur.Store(st.entries[0].Snap)
	if _, _, err := st.ByHash("deadbeef"); err == nil || errors.Is(err, ErrVersionNotFound) {
		t.Errorf("ambiguous prefix: err = %v, want an ambiguity error", err)
	}
	if _, _, err := st.ByHash("deadbeef1111"); err != nil {
		t.Errorf("full hash must disambiguate: %v", err)
	}
}

func TestStoreAsOf(t *testing.T) {
	st := NewStore(4)
	jan := mustAdd(t, st, listWithPrimary(t, "january"), monthVersion("2023-01"))
	mar := mustAdd(t, st, listWithPrimary(t, "march"), monthVersion("2023-03"))

	for _, tc := range []struct {
		spec string
		want *Snapshot
	}{
		{"2023-01", jan},
		{"2023-02", jan},              // between versions: latest not after t
		{"2023-02-15", jan},           // date spelling
		{"2023-03", mar},              // exact boundary: AsOf <= t
		{"2024-01", mar},              // after the last version
		{"2023-03-01T00:00:00Z", mar}, // RFC 3339 spelling
	} {
		at, ok := parseAsOf(tc.spec)
		if !ok {
			t.Fatalf("parseAsOf(%q) failed", tc.spec)
		}
		got, _, err := st.AsOf(at)
		if err != nil || got != tc.want {
			t.Errorf("AsOf(%s) = %p, %v, want %p", tc.spec, got, err, tc.want)
		}
	}
	early, _ := parseAsOf("2022-12")
	if _, _, err := st.AsOf(early); !errors.Is(err, ErrVersionNotFound) {
		t.Errorf("pre-history as-of: err = %v, want ErrVersionNotFound", err)
	}
	if _, ok := parseAsOf("not-a-time"); ok {
		t.Error("parseAsOf should reject junk")
	}
}

// TestStoreResolveSpellings: Resolve auto-detects hash prefixes, as-of
// times, and "current".
func TestStoreResolveSpellings(t *testing.T) {
	st := NewStore(4)
	jan := mustAdd(t, st, listWithPrimary(t, "january"), monthVersion("2023-01"))
	mar := mustAdd(t, st, listWithPrimary(t, "march"), monthVersion("2023-03"))
	for spec, want := range map[string]*Snapshot{
		"2023-01":       jan,
		"2023-02-01":    jan,
		jan.Hash()[:16]: jan,
		"current":       mar,
		mar.Hash():      mar,
	} {
		got, _, err := st.Resolve(spec)
		if err != nil || got != want {
			t.Errorf("Resolve(%q) = %p, %v, want %p", spec, got, err, want)
		}
	}
}

// TestStoreConcurrentAddAndResolve hammers AddSnapshot, Current, and the
// versioned resolvers from many goroutines (run with -race).
func TestStoreConcurrentAddAndResolve(t *testing.T) {
	st := NewStore(4)
	lists := []*core.List{
		listWithPrimary(t, "alpha"),
		listWithPrimary(t, "beta"),
		listWithPrimary(t, "gamma"),
	}
	snaps := make([]*Snapshot, len(lists))
	for i, l := range lists {
		snaps[i] = BuildSnapshot(l)
	}
	st.AddSnapshot(snaps[0], monthVersion("2023-01"))

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			st.AddSnapshot(snaps[i%len(snaps)], monthVersion("2023-02"))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if st.Current() == nil {
				t.Error("Current went nil under swaps")
				return
			}
			st.Versions()
			st.Resolve("current")
		}
	}()
	wg.Wait()
	if st.Len() > st.Cap() {
		t.Errorf("len %d exceeds capacity %d", st.Len(), st.Cap())
	}
}

// TestStoreDiffMemoization: the first Diff per (from, to) pair computes
// and memoizes; repeats are hits; the reverse pair is computed on its
// own first request; identical endpoints short-circuit without touching
// the memo.
func TestStoreDiffMemoization(t *testing.T) {
	st := NewStore(4)
	a := mustAdd(t, st, listWithPrimary(t, "alpha"), monthVersion("2023-01"))
	b := BuildSnapshot(listWithPrimary(t, "beta"))
	if m := st.diffMetrics(); m != (DiffCacheMetrics{}) {
		t.Fatalf("memo after an install = %+v, want empty", m)
	}

	// b is not retained yet: the diff computes but must not be memoized
	// (an unretained hash could never be invalidated), and counts a miss.
	d := st.Diff(a, b)
	if d.Empty() {
		t.Fatal("alpha→beta diff should not be empty")
	}
	if m := st.diffMetrics(); m.Entries != 0 || m.Misses != 1 || m.Computes != 1 {
		t.Errorf("memo after an unretained diff = %+v, want 0 entries, 1 miss, 1 compute", m)
	}

	st.AddSnapshot(b, monthVersion("2023-02"))
	// An install computes no diff and fills no slot.
	if m := st.diffMetrics(); m.Entries != 0 || m.Computes != 1 || m.Hits != 0 || m.Misses != 1 {
		t.Errorf("memo after the install = %+v, want it unchanged", m)
	}
	// a→b, then b→a: each direction is its own pair, computed once on
	// its first request.
	if got := st.Diff(a, b); !reflect.DeepEqual(got, d) {
		t.Errorf("memoized diff = %+v, want %+v", got, d)
	}
	if got, want := st.Diff(b, a), core.DiffLists(b.list, a.list); !reflect.DeepEqual(got, want) {
		t.Errorf("reverse diff = %+v, want %+v", got, want)
	}
	if m := st.diffMetrics(); m.Entries != 2 || m.Computes != 3 || m.Misses != 3 || m.Hits != 0 {
		t.Errorf("memo after both directions = %+v, want 2 entries, 2 new computes, 2 new misses", m)
	}
	// A repeat of either direction is a hit.
	st.Diff(a, b)
	st.Diff(b, a)
	if m := st.diffMetrics(); m.Computes != 3 || m.Misses != 3 || m.Hits != 2 {
		t.Errorf("memo after repeats = %+v, want 2 hits and no new misses or computes", m)
	}
	if got := st.Diff(a, a); !got.Empty() {
		t.Errorf("same-endpoint diff = %+v, want empty", got)
	}
}

// TestStoreDiffCacheInvalidationOnEvict: evicting a version must drop
// every memoized diff that touches its hash.
func TestStoreDiffCacheInvalidationOnEvict(t *testing.T) {
	st := NewStore(3)
	snaps := make([]*Snapshot, 0, 4)
	for i, name := range []string{"a", "b", "c"} {
		snaps = append(snaps, mustAdd(t, st, listWithPrimary(t, name), monthVersion(fmt.Sprintf("2023-%02d", i+1))))
	}
	// Fill the memo with every ordered pair.
	for _, from := range snaps {
		for _, to := range snaps {
			if from != to {
				st.Diff(from, to)
			}
		}
	}
	if n := len(memoKeys(st)); n != 6 {
		t.Fatalf("memo holds %d slots, want all 6 ordered pairs", n)
	}
	evictedHash := snaps[0].Hash()
	mustAdd(t, st, listWithPrimary(t, "d"), monthVersion("2023-04")) // evicts "a"
	for _, k := range memoKeys(st) {
		if k.from == evictedHash || k.to == evictedHash {
			t.Errorf("memo still holds %v after evicting %.8s", k, evictedHash)
		}
	}
	if st.diffMetrics().Invalidations != 4 {
		t.Errorf("invalidations = %d, want the 4 slots touching the evicted version", st.diffMetrics().Invalidations)
	}
	// The evicted version itself must answer a clean not-found.
	if _, _, err := st.ByHash(evictedHash); !errors.Is(err, ErrVersionNotFound) {
		t.Errorf("evicted version resolution: %v, want ErrVersionNotFound", err)
	}
}

// TestStoreDiffMemoMatchesOracle drives a retain-3 store through seeded
// random installs, including flaps back to retained hashes, and random
// diffs over retained and evicted pairs. After every step the memo may
// name only retained hashes, holds at most 3·2 slots, and every diff the
// store returned equals core.DiffLists of the two lists.
func TestStoreDiffMemoMatchesOracle(t *testing.T) {
	const retain, revisions = 3, 6
	rng := rand.New(rand.NewSource(7))
	lists := make([]*core.List, revisions)
	for i := range lists {
		// Each revision holds its own set plus a random half of a shared
		// pool, so pairs differ in both added and removed sets.
		sets := []string{fmt.Sprintf(`{"primary":"https://rev%d.com"}`, i)}
		for p := 0; p < 6; p++ {
			if rng.Intn(2) == 0 {
				member := fmt.Sprintf("https://pool%d-%d.com", p, rng.Intn(2))
				sets = append(sets, fmt.Sprintf(`{"primary":"https://pool%d.com","associatedSites":[%q],"rationaleBySite":{%q:"brand"}}`, p, member, member))
			}
		}
		list, err := core.ParseJSON([]byte(`{"sets":[` + strings.Join(sets, ",") + `]}`))
		if err != nil {
			t.Fatal(err)
		}
		lists[i] = list
	}
	st := NewStore(retain)
	snaps := make([]*Snapshot, revisions) // latest snapshot per revision, retained or not
	snaps[0] = mustAdd(t, st, lists[0], monthVersion("2023-01"))
	base, _ := time.Parse("2006-01", "2023-01")
	for step := 0; step < 300; step++ {
		if rng.Intn(3) == 0 {
			i := rng.Intn(revisions)
			at := base.Add(time.Duration(step) * time.Hour)
			snaps[i] = mustAdd(t, st, lists[i], core.Version{Source: "oracle", ObservedAt: at, AsOf: at})
		} else {
			a, b := rng.Intn(revisions), rng.Intn(revisions)
			if snaps[a] == nil || snaps[b] == nil {
				continue
			}
			got := st.Diff(snaps[a], snaps[b])
			if want := core.DiffLists(lists[a], lists[b]); got.Empty() != want.Empty() || (!want.Empty() && !reflect.DeepEqual(got, want)) {
				t.Fatalf("step %d: Diff(rev%d, rev%d) = %+v, want %+v", step, a, b, got, want)
			}
		}
		retained := make(map[string]bool)
		for _, vi := range st.Versions() {
			retained[vi.Version.Hash] = true
		}
		keys := memoKeys(st)
		if len(keys) > retain*(retain-1) {
			t.Fatalf("step %d: memo holds %d slots, want at most %d", step, len(keys), retain*(retain-1))
		}
		for _, k := range keys {
			if !retained[k.from] || !retained[k.to] {
				t.Fatalf("step %d: memo slot %.8s→%.8s names an unretained hash", step, k.from, k.to)
			}
		}
	}
}

// TestStoreDiffInversePairsConcurrently: callers racing on a cold pair
// in both directions each get the exact diff for their direction, and
// each direction is computed once.
func TestStoreDiffInversePairsConcurrently(t *testing.T) {
	st := NewStore(4)
	a := mustAdd(t, st, listWithPrimary(t, "alpha"), monthVersion("2023-01"))
	mustAdd(t, st, listWithPrimary(t, "beta"), monthVersion("2023-02"))
	c := mustAdd(t, st, listWithPrimary(t, "gamma"), monthVersion("2023-03"))
	pairs := [2][2]*Snapshot{{a, c}, {c, a}}
	const callers = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(p [2]*Snapshot) {
			defer wg.Done()
			<-start
			if got, want := st.Diff(p[0], p[1]), core.DiffLists(p[0].list, p[1].list); !reflect.DeepEqual(got, want) {
				t.Errorf("Diff(%.8s, %.8s) = %+v, want %+v", p[0].Hash(), p[1].Hash(), got, want)
			}
		}(pairs[i%2])
	}
	close(start)
	wg.Wait()
	if m := st.diffMetrics(); m.Computes != 2 {
		t.Errorf("computes = %d, want one per direction", m.Computes)
	}
}

// TestStoreChain: the chain walk returns the as-of-ordered inclusive
// span, rejects inverted endpoints, and reports evicted endpoints as
// not-found.
func TestStoreChain(t *testing.T) {
	st := NewStore(4)
	var vers []core.Version
	for i, name := range []string{"a", "b", "c"} {
		mustAdd(t, st, listWithPrimary(t, name), monthVersion(fmt.Sprintf("2023-%02d", i+1)))
		vers = append(vers, currentVersion(st))
	}
	chain, err := st.Chain(vers[0], vers[2])
	if err != nil || len(chain) != 3 {
		t.Fatalf("Chain = %d entries, %v, want 3", len(chain), err)
	}
	for i, ce := range chain {
		if ce.Version.Hash != vers[i].Hash {
			t.Errorf("chain[%d] = %.8s, want %.8s", i, ce.Version.Hash, vers[i].Hash)
		}
	}
	if chain, err = st.Chain(vers[1], vers[1]); err != nil || len(chain) != 1 {
		t.Errorf("self chain = %d entries, %v, want 1", len(chain), err)
	}
	if _, err = st.Chain(vers[2], vers[0]); err == nil || errors.Is(err, ErrVersionNotFound) {
		t.Errorf("inverted chain: err = %v, want an ordering error", err)
	}
	gone := vers[0]
	mustAdd(t, st, listWithPrimary(t, "d"), monthVersion("2023-04"))
	mustAdd(t, st, listWithPrimary(t, "e"), monthVersion("2023-05")) // evicts "a"
	if _, err = st.Chain(gone, vers[2]); !errors.Is(err, ErrVersionNotFound) {
		t.Errorf("chain from evicted version: err = %v, want ErrVersionNotFound", err)
	}
}

// TestDiffAcrossEvictionUnderTraffic is the regression test for the
// eviction bugfix: hammer /v1/diff (and /v1/churn) with every hash ever
// served while a writer churns the store far past its capacity. Every
// response must be a 200 or a clean 404 JSON envelope — never a 500,
// never a non-JSON body — and afterwards the diff memo must reference
// only retained hashes.
func TestDiffAcrossEvictionUnderTraffic(t *testing.T) {
	st := NewStore(3)
	mustAdd(t, st, listWithPrimary(t, "seed"), monthVersion("2022-12"))
	s := NewFromStore(st)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Prebuild the revisions so every reader knows every hash that will
	// ever be served — including the ones the writer has already evicted.
	const revisions = 12
	snaps := make([]*Snapshot, revisions)
	hashes := make([]string, revisions)
	for i := range snaps {
		snaps[i] = BuildSnapshot(listWithPrimary(t, fmt.Sprintf("churn%02d", i)))
		hashes[i] = snaps[i].Hash()
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		base, _ := time.Parse("2006-01", "2023-01")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				st.AddSnapshot(snaps[i%revisions], core.Version{
					Source: "flap", ObservedAt: base, AsOf: base.AddDate(0, 0, i),
				})
			}
		}
	}()

	var readers sync.WaitGroup
	client := ts.Client()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 50; i++ {
				from := hashes[(r+i)%revisions]
				for _, u := range []string{
					fmt.Sprintf("%s/v1/diff?from=%s&to=current", ts.URL, from[:12]),
					fmt.Sprintf("%s/v1/churn?from=%s&to=current", ts.URL, from[:12]),
				} {
					resp, err := client.Get(u)
					if err != nil {
						t.Error(err)
						return
					}
					var body struct {
						Error string `json:"error"`
					}
					if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
						t.Errorf("non-JSON response (status %d): %v", resp.StatusCode, err)
						resp.Body.Close()
						return
					}
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
					// 404: the version was evicted mid-request. 400: the
					// churn chain transiently inverted (a flapping hash is
					// re-filed under a newer as-of). Both must carry the
					// JSON error envelope; anything else — above all a 500
					// — is the regression.
					case http.StatusNotFound, http.StatusBadRequest:
						if body.Error == "" {
							t.Errorf("%s: status %d without an error envelope", u, resp.StatusCode)
						}
					default:
						t.Errorf("%s: status %d (error %q)", u, resp.StatusCode, body.Error)
					}
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	writer.Wait()

	// Hygiene: after the dust settles the memo may reference only
	// retained hashes.
	retained := make(map[string]bool)
	for _, vi := range st.Versions() {
		retained[vi.Version.Hash] = true
	}
	for _, k := range memoKeys(st) {
		if !retained[k.from] || !retained[k.to] {
			t.Errorf("diff memo references unretained pair %v", k)
		}
	}
}

// TestStoreDiffSingleflight: N concurrent Diff calls for the same cold
// pair must run core.DiffLists exactly once — the rest wait on the
// slot's once and share the winner's result. Run under -race this is
// also the happens-before proof for the slot handoff.
func TestStoreDiffSingleflight(t *testing.T) {
	st := NewStore(4)
	a := mustAdd(t, st, listWithPrimary(t, "alpha"), monthVersion("2023-01"))
	mustAdd(t, st, listWithPrimary(t, "beta"), monthVersion("2023-02"))
	c := mustAdd(t, st, listWithPrimary(t, "gamma"), monthVersion("2023-03"))
	k := diffKey{from: a.Hash(), to: c.Hash()}
	for _, have := range memoKeys(st) {
		if have == k {
			t.Fatal("a→c pair is already warm; the test needs a cold pair")
		}
	}
	before := st.diffMetrics()

	const callers = 32
	start := make(chan struct{})
	results := make([]core.Diff, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i] = st.Diff(a, c)
		}(i)
	}
	close(start)
	wg.Wait()

	after := st.diffMetrics()
	if got := after.Computes - before.Computes; got != 1 {
		t.Errorf("%d concurrent misses ran DiffLists %d times, want 1", callers, got)
	}
	want := core.DiffLists(a.list, c.list)
	for i, d := range results {
		if !reflect.DeepEqual(d, want) {
			t.Errorf("caller %d got diff %+v, want %+v", i, d, want)
		}
	}
	// One caller registered the slot (a miss); every other one found it.
	if misses, hits := after.Misses-before.Misses, after.Hits-before.Hits; misses != 1 || hits != callers-1 {
		t.Errorf("misses=%d hits=%d, want 1 and %d", misses, hits, callers-1)
	}
}
