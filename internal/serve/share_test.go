package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rwskit/internal/amplify"
	"rwskit/internal/browser"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
	"rwskit/internal/source"
)

// churnBodies returns the list bodies of n sliding windows of size sets
// over one amplified pool (seed 1), each window step sets past the last,
// and the pool. Window i drops pool[i*step-step:i*step] and adds
// pool[i*step+size-step:i*step+size]: the churned edge.
func churnBodies(tb testing.TB, n, size, step int) ([][]byte, []*core.Set) {
	tb.Helper()
	pool, err := amplify.Generate(amplify.Config{Sets: size + (n-1)*step, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		l, err := core.NewList(pool.Sets()[i*step : i*step+size])
		if err != nil {
			tb.Fatal(err)
		}
		if bodies[i], err = l.MarshalJSON(); err != nil {
			tb.Fatal(err)
		}
	}
	return bodies, pool.Sets()
}

// fileFetch writes body to src's file and fetches it, parsed against the
// last list src delivered.
func fileFetch(tb testing.TB, src *source.FileSource, body []byte) (*core.List, source.Meta) {
	tb.Helper()
	if err := os.WriteFile(src.Location(), body, 0o644); err != nil {
		tb.Fatal(err)
	}
	src.Invalidate()
	list, meta, err := src.Fetch(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return list, meta
}

// liveHeap returns the heap in use after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// serveGET answers path in process and decodes a 200 body into into. It
// reports failures with Errorf, so readers on other goroutines may call it.
func serveGET(t *testing.T, srv *Server, path string, into any) {
	serveReq(t, srv, httptest.NewRequest(http.MethodGet, path, nil), into)
}

func serveReq(t *testing.T, srv *Server, req *http.Request, into any) {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("%s %s: status %d: %s", req.Method, req.URL, rec.Code, rec.Body.Bytes())
		return
	}
	if into != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Errorf("%s: decoding body: %v", req.URL, err)
		}
	}
}

var oraclePolicies = []string{"rws", "strict", "prompt", "legacy"}

// policyOracle is the live browser policy named by a query's policy=,
// over the oracle's own list.
func policyOracle(name string, list *core.List) browser.Policy {
	switch name {
	case "rws":
		return browser.RWSPolicy{List: list}
	case "strict":
		return browser.StrictPolicy{}
	case "prompt":
		return browser.PromptPolicy{}
	default:
		return browser.LegacyPolicy{}
	}
}

// checkPinnedAnswers holds srv's /v1/sameset, /v1/set and /v1/partition
// answers, pinned to want's version, to want's own lookups and to
// browser.EvaluateFresh over want. hosts are the sites asked about, in
// pairs (hosts[i], hosts[i+1]); a host want does not hold must miss.
func checkPinnedAnswers(t *testing.T, srv *Server, want *core.List, hosts []string) {
	t.Helper()
	ver := want.Hash()
	for i, a := range hosts {
		b := hosts[(i+1)%len(hosts)]
		var ss SameSetResponse
		serveGET(t, srv, fmt.Sprintf("/v1/sameset?a=%s&b=%s&version=%s", a, b, ver), &ss)
		wantSS := SameSetResponse{A: a, B: b, SameSet: want.SameSet(a, b)}
		if wantSS.SameSet {
			s, _, _ := want.FindSet(a)
			wantSS.Primary = s.Primary
		}
		if ss != wantSS {
			t.Errorf("version %.12s: sameset = %+v, want %+v", ver, ss, wantSS)
		}

		var set SetResponse
		serveGET(t, srv, fmt.Sprintf("/v1/set?site=%s&version=%s", a, ver), &set)
		wantSet := SetResponse{Site: a}
		if s, role, ok := want.FindSet(a); ok {
			wantSet = SetResponse{Site: a, Found: true, Role: role.String(), Primary: s.Primary, Members: prebakeMembers(s)}
		}
		if !reflect.DeepEqual(set, wantSet) {
			t.Errorf("version %.12s: set = %+v, want %+v", ver, set, wantSet)
		}

		if a == b {
			continue
		}
		for _, name := range oraclePolicies {
			var part PartitionResponse
			serveGET(t, srv, fmt.Sprintf("/v1/partition?top=%s&embedded=%s&policy=%s&version=%s", a, b, name, ver), &part)
			live := policyOracle(name, want)
			v := browser.EvaluateFresh(live, a, b)
			wantPart := PartitionResponse{Policy: live.Name(), Top: a, Embedded: b, SameSet: want.SameSet(a, b),
				PartitionedByDefault: live.PartitionByDefault(), Decision: v.Decision.String(), Granted: v.Granted}
			if part != wantPart {
				t.Errorf("version %.12s: partition = %+v, want %+v", ver, part, wantPart)
			}
		}
	}
}

// sampleHosts draws two members of each of n sets from sets, so the
// pairs checkPinnedAnswers forms cover same-set and cross-set pairs.
func sampleHosts(rng *rand.Rand, sets []*core.Set, n int) []string {
	var hosts []string
	for i := 0; i < n; i++ {
		sites := sets[rng.Intn(len(sets))].Sites()
		hosts = append(hosts, sites[rng.Intn(len(sites))], sites[rng.Intn(len(sites))])
	}
	return hosts
}

// TestRetainedRevisionsShareSets delivers eight churned 10⁴-set
// revisions through a FileSource into a store retaining all eight. Every
// retained version answers pinned queries, the churned edge sets
// included, as an independent parse of its own body does, and the eight
// revisions together hold at most 3× the heap of one (2.2× measured):
// they share every set they have in common, and its member and list
// fragments.
func TestRetainedRevisionsShareSets(t *testing.T) {
	const revs, size, step = DefaultRetain, 10_000, 50
	bodies, pool := churnBodies(t, revs, size, step)
	src := source.NewFileSource(filepath.Join(t.TempDir(), "list.json"))
	st := NewStore(revs)

	base := liveHeap()
	list, meta := fileFetch(t, src, bodies[0])
	mustAdd(t, st, list, meta.Version())
	one := liveHeap() - base
	deliver := NewFromStore(st).SwapDeliver(io.Discard)
	for _, body := range bodies[1:] {
		list, meta := fileFetch(t, src, body)
		deliver(source.Swap{List: list, Meta: meta})
	}
	all := liveHeap() - base
	t.Logf("retained heap: one revision %.1fMB, %d revisions %.1fMB (%.1f×)",
		float64(one)/1e6, revs, float64(all)/1e6, float64(all)/float64(one))
	if st.Len() != revs {
		t.Fatalf("store retains %d versions, want %d", st.Len(), revs)
	}
	if all > 3*one {
		t.Errorf("%d retained revisions hold %.1fMB, more than 3× one revision's %.1fMB",
			revs, float64(all)/1e6, float64(one)/1e6)
	}

	srv := NewFromStore(st)
	rng := rand.New(rand.NewSource(1))
	reach := (revs - 1) * step
	edge := append(append([]*core.Set(nil), pool[:reach]...), pool[size:]...)
	for _, body := range bodies {
		want, err := core.ParseJSON(body)
		if err != nil {
			t.Fatal(err)
		}
		hosts := append(sampleHosts(rng, edge, 40), sampleHosts(rng, pool[reach:size], 10)...)
		checkPinnedAnswers(t, srv, want, hosts)
	}
}

// TestSharedListFragmentsExportExactly delivers eight churned revisions
// through a FileSource, so each is parsed against the last and built
// against its snapshot. Every retained revision's /v1/list?version= body
// is byte-identical to its own list's JSON plus a newline and parses
// back to that list, although most of its set fragments were encoded by
// an earlier revision; every fragment is capped at its own length.
func TestSharedListFragmentsExportExactly(t *testing.T) {
	const revs, size, step = DefaultRetain, 300, 7
	bodies, _ := churnBodies(t, revs, size, step)
	src := source.NewFileSource(filepath.Join(t.TempDir(), "list.json"))
	st := NewStore(revs)
	list, meta := fileFetch(t, src, bodies[0])
	mustAdd(t, st, list, meta.Version())
	srv := NewFromStore(st)
	deliver := srv.SwapDeliver(io.Discard)
	for _, body := range bodies[1:] {
		list, meta := fileFetch(t, src, body)
		deliver(source.Swap{List: list, Meta: meta})
	}
	if st.Swaps() < 7 || st.Len() != revs {
		t.Fatalf("%d swaps, %d versions retained; want ≥ 7 and %d", st.Swaps(), st.Len(), revs)
	}
	versions := make([]*Snapshot, revs)
	for k, body := range bodies {
		want, err := core.ParseJSON(body)
		if err != nil {
			t.Fatal(err)
		}
		if versions[k], _, err = st.ByHash(want.Hash()); err != nil {
			t.Fatal(err)
		}
	}
	first, shared := versions[0], 0
	for _, snap := range versions {
		for i, frag := range snap.respSets {
			if cap(frag) != len(frag) {
				t.Fatalf("version %.12s: set %d fragment has cap %d, len %d", snap.hash, i, cap(frag), len(frag))
			}
			if _, j, _, ok := first.list.Lookup(snap.sets[i].Primary); ok && &frag[0] == &first.respSets[j][0] {
				shared++
			}
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/list?version="+snap.hash, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("version %.12s: status %d", snap.hash, rec.Code)
		}
		got := rec.Body.String()
		if want := string(snap.List().JSON()) + "\n"; got != want {
			t.Errorf("version %.12s: /v1/list body differs from the list's JSON", snap.hash)
		}
		if back, err := core.ParseJSON([]byte(got)); err != nil || back.Hash() != snap.hash {
			t.Errorf("version %.12s: /v1/list body does not round-trip (err %v)", snap.hash, err)
		}
	}
	if shared < (revs-1)*(size-(revs-1)*step) {
		t.Errorf("only %d fragments shared with the first revision; the revisions must share sets", shared)
	}
}

// hitEveryHandler asks srv every endpoint, pinned to version where the
// endpoint takes one, about hosts, and fails on any non-200 answer.
func hitEveryHandler(t *testing.T, srv *Server, version string, hosts []string) {
	for i, a := range hosts {
		b := hosts[(i+1)%len(hosts)]
		serveGET(t, srv, fmt.Sprintf("/v1/sameset?a=%s&b=%s&version=%s", a, b, version), nil)
		serveGET(t, srv, fmt.Sprintf("/v1/sameset?pairs=%s,%s;%s,%s&version=%s", a, b, b, a, version), nil)
		serveGET(t, srv, fmt.Sprintf("/v1/set?site=%s&version=%s", a, version), nil)
		for _, name := range oraclePolicies {
			serveGET(t, srv, fmt.Sprintf("/v1/partition?top=%s&embedded=%s&policy=%s&version=%s", a, b, name, version), nil)
		}
	}
	batch := `{"queries":[{"top":"` + hosts[0] + `","embedded":"` + hosts[1] + `"}]}`
	serveReq(t, srv, httptest.NewRequest(http.MethodPost, "/v1/partition/batch", strings.NewReader(batch)), nil)
	for _, path := range []string{"/v1/stats?version=" + version, "/v1/list?version=" + version,
		"/v1/diff?from=" + version + "&to=current", "/v1/churn", "/v1/versions", "/v1/metrics", "/healthz"} {
		serveGET(t, srv, path, nil)
	}
}

// cloneSets deep-copies every set of l.
func cloneSets(l *core.List) []*core.Set {
	out := make([]*core.Set, l.NumSets())
	for i, s := range l.Sets() {
		out[i] = s.Clone()
	}
	return out
}

// TestSharedSetsStayImmutable pins the contract set sharing rests on: no
// step of a swap mutates a set once it is in a list. Two consecutive
// revisions are parsed through one FileSource (the second against the
// first) and deep-cloned; the second goes through SwapDeliver while
// readers query the first; then every handler runs on both versions,
// and DiffLists, Hash and MarshalJSON on both lists. Every set must
// still Equal its clone. Run it under -race.
func TestSharedSetsStayImmutable(t *testing.T) {
	bodies, _ := churnBodies(t, 2, 400, 40)
	src := source.NewFileSource(filepath.Join(t.TempDir(), "list.json"))
	listA, metaA := fileFetch(t, src, bodies[0])
	cloneA := cloneSets(listA)
	st := NewStore(DefaultRetain)
	mustAdd(t, st, listA, metaA.Version())
	srv := NewFromStore(st)
	rng := rand.New(rand.NewSource(2))
	hostsA := sampleHosts(rng, listA.Sets(), 8)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				hitEveryHandler(t, srv, metaA.Hash, hostsA)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	listB, metaB := fileFetch(t, src, bodies[1])
	cloneB := cloneSets(listB)
	srv.SwapDeliver(io.Discard)(source.Swap{List: listB, Meta: metaB})
	close(stop)
	wg.Wait()

	hitEveryHandler(t, srv, metaA.Hash, hostsA)
	hitEveryHandler(t, srv, metaB.Hash, sampleHosts(rng, listB.Sets(), 8))
	if d := core.DiffLists(listA, listB); len(d.AddedSets) == 0 || len(d.RemovedSets) == 0 {
		t.Errorf("the revisions do not churn: %s", d.Summary())
	}
	for _, l := range []*core.List{listA, listB} {
		l.Hash()
		if _, err := l.MarshalJSON(); err != nil {
			t.Fatal(err)
		}
	}

	shared := 0
	for _, s := range listB.Sets() {
		if old, _, _, ok := listA.Lookup(s.Primary); ok && old == s {
			shared++
		}
	}
	if shared == 0 {
		t.Error("the second revision shares no set with the first")
	}
	for label, pair := range map[string][2][]*core.Set{"A": {listA.Sets(), cloneA}, "B": {listB.Sets(), cloneB}} {
		for i, s := range pair[0] {
			if !s.Equal(pair[1][i]) {
				t.Errorf("revision %s: set %s changed after it was listed", label, s.Primary)
			}
		}
	}
}

// checkReuse fails unless got, built against prev, aliases prev's member
// and list fragments exactly for the sets its list shares with prev's by
// pointer, and returns how many it shares.
func checkReuse(t *testing.T, name string, got, prev *Snapshot) int {
	t.Helper()
	reused := 0
	for i, set := range got.list.Sets() {
		old, j, _, ok := prev.list.Lookup(set.Primary)
		shared := ok && old == set
		if aliases := ok && &got.respMembers[i][0] == &prev.respMembers[j][0]; aliases != shared {
			t.Errorf("%s: set %s fragment reused = %v, shared = %v", name, set.Primary, aliases, shared)
		}
		if aliases := ok && &got.respSets[i][0] == &prev.respSets[j][0]; aliases != shared {
			t.Errorf("%s: set %s list fragment reused = %v, shared = %v", name, set.Primary, aliases, shared)
		}
		if shared {
			reused++
		}
	}
	return reused
}

// TestBuildAgainstPrevMatchesSerial: a snapshot built against the one it
// replaces equals the full-scan reference build of its list, and its
// member and list fragments alias prev's exactly for the sets the two
// lists share by pointer; a set with prev's primary but other members is
// re-encoded. A parsed revision that moves prev's last set to the front
// and re-indents another, which the parse shares through Equal, makes the
// build's cursor into prev resync.
func TestBuildAgainstPrevMatchesSerial(t *testing.T) {
	embedded, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	pools := map[string][]*core.Set{"embedded": embedded.Sets()}
	for _, seed := range []int64{1, 2, 3} {
		l, err := amplify.Generate(amplify.Config{Sets: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		pools[fmt.Sprintf("amplified-seed%d", seed)] = l.Sets()
	}
	for name, pool := range pools {
		step := len(pool) / 8
		listA, err := core.NewList(pool[:len(pool)-step])
		if err != nil {
			t.Fatal(err)
		}
		setsB := append([]*core.Set(nil), pool[step:]...)
		edited := 0
		for i := 0; i < len(setsB); i += 5 {
			if len(setsB[i].Associated) > 0 {
				e := setsB[i].Clone()
				e.Associated = e.Associated[1:]
				setsB[i] = e
				edited++
			}
		}
		listB, err := core.NewList(setsB)
		if err != nil {
			t.Fatal(err)
		}
		prev := BuildSnapshot(listA)
		got := buildSnapshot(listB, "", prev)
		equalSnapshots(t, name, got, buildSerial(listB))
		if reused := checkReuse(t, name, got, prev); reused == 0 || edited == 0 {
			t.Errorf("%s: %d fragments reused, %d sets edited; the lists must exercise both", name, reused, edited)
		}
	}

	pool := pools["amplified-seed1"]
	revA, err := core.ParseJSONFrom(setsBody(t, pool[:100], -1), nil)
	if err != nil {
		t.Fatal(err)
	}
	moved := append([]*core.Set{pool[99]}, pool[:99]...)
	edited := pool[50].Clone()
	edited.Contact = "edited@example.com"
	moved[51] = edited
	const reindented = 20
	revB, err := core.ParseJSONFrom(setsBody(t, moved, reindented), revA)
	if err != nil {
		t.Fatal(err)
	}
	listB := revB.List()
	if listB.Sets()[0] != revA.List().Sets()[99] {
		t.Fatal("the moved set is not shared")
	}
	if listB.Sets()[reindented] != revA.List().Sets()[reindented-1] {
		t.Fatal("the re-indented set is not shared through Equal")
	}
	prev := BuildSnapshot(revA.List())
	got := buildSnapshot(listB, revB.Hash(), prev)
	equalSnapshots(t, "parsed", got, buildSerial(listB))
	if reused := checkReuse(t, "parsed", got, prev); reused != len(moved)-1 {
		t.Errorf("parsed: %d fragments reused, want %d", reused, len(moved)-1)
	}
}

// setsBody encodes sets as a list body in the order given, the set at
// index indented (none if negative) re-indented.
func setsBody(t *testing.T, sets []*core.Set, indented int) []byte {
	body := []byte(`{"sets":[`)
	for i, set := range sets {
		if i > 0 {
			body = append(body, ',')
		}
		raw := core.AppendSetJSON(nil, set)
		if i == indented {
			var out bytes.Buffer
			if err := json.Indent(&out, raw, "", "  "); err != nil {
				t.Fatal(err)
			}
			raw = out.Bytes()
		}
		body = append(body, raw...)
	}
	return append(body, "]}"...)
}
