package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rwskit/internal/amplify"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
)

// mustParse parses body against prev, failing the test on error.
func mustParse(tb testing.TB, body string, prev *core.Revision) *core.Revision {
	tb.Helper()
	l, err := core.ParseJSONFrom([]byte(body), prev)
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

// TestParseJSONFromSharesUnchangedSets: a set that Equals prev's set
// with the same primary comes back as prev's pointer, whether its bytes
// match prev's span or were re-indented; a changed (even at the same
// length), added or re-added-with-edits set comes back fresh. Either way
// the list hashes and marshals exactly as a prev-less ParseJSON of the
// body.
func TestParseJSONFromSharesUnchangedSets(t *testing.T) {
	const (
		a    = `{"primary":"https://a.com","associatedSites":["https://a-blog.com"],"rationaleBySite":{"https://a-blog.com":"brand"}}`
		aCC  = `{"primary":"https://a.com","associatedSites":["https://a-blog.com"],"rationaleBySite":{"https://a-blog.com":"brand"},"ccTLDs":{"https://a.com":["https://a.de"]}}`
		aWhy = `{"primary":"https://a.com","associatedSites":["https://a-blog.com"],"rationaleBySite":{"https://a-blog.com":"same brand"}}`
		aAlt = `{"primary":"https://a.com","associatedSites":["https://a-blog.com"],"rationaleBySite":{"https://a-blog.com":"brAnd"}}`
		b    = `{"contact":"x@b.com","primary":"https://b.com","serviceSites":["https://b-cdn.com"]}`
		bTo  = `{"contact":"y@b.com","primary":"https://b.com","serviceSites":["https://b-cdn.com"]}`
		c    = `{"primary":"https://c.com"}`
		// d's primary is one of prev's associated sites.
		d = `{"primary":"https://a-blog.com"}`
	)
	list := func(sets ...string) string {
		body := `{"sets":[`
		for i, s := range sets {
			if i > 0 {
				body += ","
			}
			body += s
		}
		return body + "]}"
	}
	prev := mustParse(t, list(a, b), nil)
	rows := []struct {
		name   string
		body   string
		shared []string // primaries that must be prev's pointers
	}{
		{"unchanged", list(a, b), []string{"a.com", "b.com"}},
		{"reordered", list(b, a), []string{"a.com", "b.com"}},
		{"added", list(a, b, c), []string{"a.com", "b.com"}},
		{"removed", list(b), []string{"b.com"}},
		{"contact changed", list(a, bTo), []string{"a.com"}},
		{"ccTLD added", list(aCC, b), []string{"b.com"}},
		{"rationale changed", list(aWhy, b), []string{"b.com"}},
		{"rationale changed at the same length", list(aAlt, b), []string{"b.com"}},
		{"re-indented", indent(t, list(a, b)), []string{"a.com", "b.com"}},
		{"primary was a member", list(b, d), []string{"b.com"}},
		{"empty", list(), nil},
	}
	for _, row := range rows {
		got := mustParse(t, row.body, prev).List()
		want := mustParse(t, row.body, nil).List()
		if got.Hash() != want.Hash() {
			t.Errorf("%s: Hash differs from ParseJSON's", row.name)
		}
		gb, _ := got.MarshalJSON()
		wb, _ := want.MarshalJSON()
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s: MarshalJSON differs from ParseJSON's:\n got %s\nwant %s", row.name, gb, wb)
		}
		shared := map[string]bool{}
		for _, p := range row.shared {
			shared[p] = true
		}
		for _, s := range got.Sets() {
			old, _, _, ok := prev.List().Lookup(s.Primary)
			if isShared := ok && old == s; isShared != shared[s.Primary] {
				t.Errorf("%s: set %s shared = %v, want %v", row.name, s.Primary, isShared, shared[s.Primary])
			}
		}
	}

	// Re-added with edits: a set dropped by one revision and back with
	// edits in the next is fresh against both.
	mid := mustParse(t, list(b), prev)
	back := mustParse(t, list(aCC, b), mid)
	if s, _, _ := back.List().FindSet("a.com"); s == mustFind(t, prev.List(), "a.com") {
		t.Error("re-added edited set shares the pointer of its old revision")
	}
	if s, _, _ := back.List().FindSet("b.com"); s != mustFind(t, prev.List(), "b.com") {
		t.Error("b.com was not shared across two revisions")
	}
}

// indent re-indents a JSON body, sets included.
func indent(t *testing.T, body string) string {
	t.Helper()
	var out bytes.Buffer
	if err := json.Indent(&out, []byte(body), "", "  "); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func mustFind(t *testing.T, l *core.List, site string) *core.Set {
	t.Helper()
	s, _, ok := l.FindSet(site)
	if !ok {
		t.Fatalf("%s not in list", site)
	}
	return s
}

// TestSetEqual: one row per field that makes two sets differ, and the
// spellings that must not: a clone, nil against empty maps, and a ccTLD
// key with no aliases (which the parser drops). Equal sets encode
// byte-identically and leave List.Hash unchanged when swapped.
func TestSetEqual(t *testing.T) {
	base := func() *core.Set {
		return &core.Set{
			Contact:         "x@a.com",
			Primary:         "a.com",
			Associated:      []string{"a-blog.com", "a-shop.com"},
			Service:         []string{"a-cdn.com"},
			CCTLDs:          map[string][]string{"a.com": {"a.de", "a.fr"}},
			RationaleBySite: map[string]string{"a-blog.com": "brand", "a-shop.com": "brand", "a-cdn.com": "cdn"},
		}
	}
	bare := func() *core.Set { return &core.Set{Primary: "a.com"} }
	parsed, err := core.ParseSetJSON([]byte(`{"primary":"https://a.com","ccTLDs":{"https://a.com":[]}}`))
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name  string
		a, b  *core.Set
		equal bool
	}{
		{"clone", base(), base().Clone(), true},
		{"nil vs empty maps", bare(), &core.Set{Primary: "a.com", CCTLDs: map[string][]string{}, RationaleBySite: map[string]string{}}, true},
		{"nil vs empty slices", bare(), &core.Set{Primary: "a.com", Associated: []string{}, Service: []string{}}, true},
		{"ccTLD key without aliases", bare(), parsed, true},
		{"contact", base(), func() *core.Set { s := base(); s.Contact = "y@a.com"; return s }(), false},
		{"primary", base(), func() *core.Set { s := base(); s.Primary = "b.com"; return s }(), false},
		{"associated member", base(), func() *core.Set { s := base(); s.Associated[1] = "a-news.com"; return s }(), false},
		{"associated order", base(), func() *core.Set {
			s := base()
			s.Associated[0], s.Associated[1] = s.Associated[1], s.Associated[0]
			return s
		}(), false},
		{"service", base(), func() *core.Set { s := base(); s.Service = nil; return s }(), false},
		{"ccTLD alias", base(), func() *core.Set { s := base(); s.CCTLDs["a.com"] = []string{"a.de"}; return s }(), false},
		{"ccTLD order", base(), func() *core.Set { s := base(); s.CCTLDs["a.com"] = []string{"a.fr", "a.de"}; return s }(), false},
		{"ccTLD key", base(), func() *core.Set {
			s := base()
			s.CCTLDs = map[string][]string{"a-blog.com": {"a.de", "a.fr"}}
			return s
		}(), false},
		{"rationale text", base(), func() *core.Set { s := base(); s.RationaleBySite["a-cdn.com"] = "assets"; return s }(), false},
		{"rationale key", base(), func() *core.Set { s := base(); delete(s.RationaleBySite, "a-cdn.com"); return s }(), false},
	}
	other := &core.Set{Primary: "z.com"}
	for _, row := range rows {
		if got := row.a.Equal(row.b); got != row.equal {
			t.Errorf("%s: Equal = %v, want %v", row.name, got, row.equal)
		}
		if got := row.b.Equal(row.a); got != row.equal {
			t.Errorf("%s: Equal is not symmetric", row.name)
		}
		if !row.equal {
			continue
		}
		ja, _ := core.MarshalSetJSON(row.a)
		jb, _ := core.MarshalSetJSON(row.b)
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: Equal sets encode differently:\n%s\n%s", row.name, ja, jb)
		}
		la, err := core.NewList([]*core.Set{row.a, other})
		if err != nil {
			t.Fatal(err)
		}
		lb, err := core.NewList([]*core.Set{row.b, other})
		if err != nil {
			t.Fatal(err)
		}
		if la.Hash() != lb.Hash() {
			t.Errorf("%s: swapping Equal sets changed List.Hash", row.name)
		}
	}
}

// cloneList rebuilds l from Set.Clone()s, so it shares no set pointer
// with any other list.
func cloneList(tb testing.TB, l *core.List) *core.List {
	tb.Helper()
	sets := make([]*core.Set, len(l.Sets()))
	for i, s := range l.Sets() {
		sets[i] = s.Clone()
	}
	c, err := core.NewList(sets)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestDiffListsSkipsSharedSets: on churned windows whose common sets are
// shared pointers, with a few common sets edited, DiffLists answers what
// it answers on clones that share nothing.
func TestDiffListsSkipsSharedSets(t *testing.T) {
	embedded, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	pools := [][]*core.Set{embedded.Sets()}
	for seed := int64(1); seed <= 3; seed++ {
		l, err := amplify.Generate(amplify.Config{Sets: 600, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		pools = append(pools, l.Sets())
	}
	for pi, pool := range pools {
		size, step := len(pool)*3/4, len(pool)/8
		a, err := core.NewList(pool[:size])
		if err != nil {
			t.Fatal(err)
		}
		bSets := append([]*core.Set(nil), pool[step:step+size]...)
		for i := 0; i < len(bSets); i += 7 {
			if len(bSets[i].Associated) > 0 {
				e := bSets[i].Clone()
				e.Associated = e.Associated[1:]
				bSets[i] = e
			}
		}
		b, err := core.NewList(bSets)
		if err != nil {
			t.Fatal(err)
		}
		got, want := core.DiffLists(a, b), core.DiffLists(cloneList(t, a), cloneList(t, b))
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pool %d: DiffLists over shared sets = %+v, want %+v", pi, got.Summary(), want.Summary())
		}
		if len(got.AddedSets) == 0 || len(got.RemovedSets) == 0 || len(got.RemovedMembers) == 0 {
			t.Errorf("pool %d: the windows do not churn: %s", pi, got.Summary())
		}
	}
}

// TestParseJSONFromSkipsUnchangedSpans: a set whose bytes match prev's
// span at the cursor is taken without being decoded, and after a miss the
// cursor resyncs to the set after prev's set with the same primary, so a
// slide or a moved set decodes only the sets it touched, and every
// unchanged set is still prev's pointer. Decodes are counted through
// allocations: a taken set allocates nothing, a decoded one its strings,
// slice and map.
func TestParseJSONFromSkipsUnchangedSpans(t *testing.T) {
	const n = 40
	body := func(idx ...int) string {
		sets := make([]string, len(idx))
		for j, i := range idx {
			sets[j] = fmt.Sprintf(`{"primary":"https://s%03d.com","associatedSites":["https://s%03d-a.com"],"rationaleBySite":{"https://s%03d-a.com":"brand"}}`, i, i, i)
		}
		return `{"sets":[` + strings.Join(sets, ",") + "]}"
	}
	seq := func(lo, hi int) []int {
		var idx []int
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		return idx
	}
	allocs := func(body string, from *core.Revision) float64 {
		data := []byte(body)
		return testing.AllocsPerRun(10, func() {
			if _, err := core.ParseJSONFrom(data, from); err != nil {
				t.Fatal(err)
			}
		})
	}
	prevBody := body(seq(0, n)...)
	prev := mustParse(t, prevBody, nil)
	base := allocs(prevBody, prev)
	// Against a re-indented revision every span misses, so every set is
	// decoded.
	perSet := (allocs(prevBody, mustParse(t, indent(t, prevBody), nil)) - base) / n
	if perSet < 2 {
		t.Fatalf("decoding a set costs %.1f allocations, too few to count decodes by", perSet)
	}
	rows := []struct {
		name    string
		sets    []int
		decoded int
	}{
		{"unchanged", seq(0, n), 0},
		// s005 misses s000's span and resyncs; s040–s044 are new.
		{"slide", seq(5, n+5), 6},
		// s039 misses and moves the cursor past the end; s000 then misses
		// and resyncs to s001.
		{"moved end to front", append([]int{n - 1}, seq(0, n-1)...), 2},
		{"moved front to end", append(seq(1, n), 0), 2},
		{"moved end to front in a slide", append([]int{n - 1}, seq(5, n-1)...), 2},
	}
	for _, row := range rows {
		b := body(row.sets...)
		got := mustParse(t, b, prev).List()
		for _, s := range got.Sets() {
			old, _, _, ok := prev.List().Lookup(s.Primary)
			if ok && old != s {
				t.Errorf("%s: unchanged set %s is not prev's pointer", row.name, s.Primary)
			}
		}
		if extra := allocs(b, prev) - base; extra > float64(row.decoded+2)*perSet {
			t.Errorf("%s: %.0f allocations over taking every set, %.1f per decoded set: more than %d decodes",
				row.name, extra, perSet, row.decoded)
		}
	}
}

// TestRevisionHashMatchesListHash: the hash a revision combines from the
// set digests its parse kept or carried over equals List.Hash of its
// list, ParseJSON's hash of the body and the oracle's, and the primary
// order its parse merged from prev's equals ParseJSON's, for revisions
// that slide, move a set between the front and the back, re-indent every
// set or one set (decoded into a set Equal to prev's), and edit a
// rationale at the same length; and again for the previous body parsed
// back against each of them.
func TestRevisionHashMatchesListHash(t *testing.T) {
	pool, err := amplify.Generate(amplify.Config{Sets: 45, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sets := pool.Sets()
	prevBody := listBody(sets[:40]...)
	prev := mustParse(t, string(prevBody), nil)
	rows := []struct {
		name string
		body []byte
	}{
		{"slide", listBody(sets[5:45]...)},
		{"moved front to back", listBody(append(slices.Clone(sets[1:40]), sets[0])...)},
		{"moved back to front", listBody(append([]*core.Set{sets[39]}, sets[:39]...)...)},
		{"re-indented", []byte(indent(t, string(prevBody)))},
		{"one set re-indented", reindentSet(t, prevBody, sets[7])},
		{"rationale edited at the same length", editRationale(t, prevBody)},
	}
	check := func(name string, body []byte, rev *core.Revision) {
		t.Helper()
		want, err := core.ParseJSON(body)
		if err != nil {
			t.Fatal(err)
		}
		if got, list, fresh, oracle := rev.Hash(), rev.List().Hash(), want.Hash(), hashOracle(want); got != list || got != fresh || got != oracle {
			t.Errorf("%s: Revision.Hash %.12s, List.Hash %.12s, ParseJSON's %.12s, oracle %.12s", name, got, list, fresh, oracle)
		}
		if got := rev.List().PrimaryOrder(); !slices.Equal(got, want.PrimaryOrder()) {
			t.Errorf("%s: PrimaryOrder %v, ParseJSON's %v", name, got, want.PrimaryOrder())
		}
	}
	check("prev", prevBody, prev)
	for _, row := range rows {
		rev := mustParse(t, string(row.body), prev)
		check(row.name, row.body, rev)
		check(row.name+", then back", prevBody, mustParse(t, string(prevBody), rev))
	}
}

// reindentSet returns body with set's bytes re-indented: the set decodes
// to one Equal to set, but its span no longer matches.
func reindentSet(t *testing.T, body []byte, set *core.Set) []byte {
	t.Helper()
	raw := core.AppendSetJSON(nil, set)
	if bytes.Count(body, raw) != 1 {
		t.Fatalf("set %s is not in the body once", set.Primary)
	}
	return bytes.Replace(body, raw, []byte(indent(t, string(raw))), 1)
}
