package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"rwskit/internal/browser"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
)

// policySpellings pairs every policy spelling /v1/partition accepts
// with the name policyOracle knows the policy by. The empty spelling is
// sent as policy=; an out-of-range index leaves the parameter out.
var policySpellings = [][2]string{
	{"", "rws"}, {"rws", "rws"}, {"chrome", "rws"},
	{"strict", "strict"}, {"brave", "strict"},
	{"prompt", "prompt"}, {"firefox", "prompt"}, {"safari", "prompt"},
	{"legacy", "legacy"}, {"unpartitioned", "legacy"},
}

// spellHost renders a canonical host in one of the spellings the API
// accepts, chosen by the low bits of how: scheme prefix, :port suffix,
// upper case, trailing dot.
func spellHost(host string, how uint8) string {
	if how&4 != 0 {
		host = strings.ToUpper(host)
	}
	if how&8 != 0 {
		host += "."
	}
	if how&2 != 0 {
		host += ":443"
	}
	if how&1 != 0 {
		host = "https://" + host
	}
	return host
}

// echoed is what a JSON round trip leaves of s: the API echoes inputs as
// given, and invalid UTF-8 comes back as U+FFFD exactly as encoding/json
// renders it.
func echoed(t *testing.T, s string) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var out string
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzServeOracle is the differential oracle over HTTP. A store retains
// two revisions: the embedded list (current) and an older one that lacks
// its first set and has its second set edited, sharing every other set.
// Each input picks two hosts (list members of either revision, or a
// fuzzed string), a spelling for each, a policy spelling and a version
// pin (none, version=current, a hash prefix of either revision, or an
// as_of instant), then drives /v1/sameset, /v1/set and /v1/partition
// through ServeHTTP. Every answer is decoded and compared with what
// core.List (SameSet, FindSet) and browser.EvaluateFresh (through
// share_test.go's policyOracle) say on the pinned revision's list; the
// ETag must name that revision.
func FuzzServeOracle(f *testing.F) {
	cur, err := dataset.List()
	if err != nil {
		f.Fatal(err)
	}
	sets := slices.Clone(cur.Sets()[1:])
	edited := sets[0].Clone()
	if len(edited.Associated) == 0 {
		f.Fatalf("set %s has no associated site to drop", edited.Primary)
	}
	edited.Associated = edited.Associated[1:]
	sets[0] = edited
	old, err := core.NewList(sets)
	if err != nil {
		f.Fatal(err)
	}

	st := NewStore(4)
	jan := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	mar := time.Date(2024, 3, 26, 0, 0, 0, 0, time.UTC)
	mustAdd(f, st, old, core.Version{Source: "oracle:old", ObservedAt: jan, AsOf: jan})
	mustAdd(f, st, cur, core.Version{Source: "oracle:cur", ObservedAt: mar, AsOf: mar})
	srv := NewFromStore(st)

	pins := []struct {
		param string
		list  *core.List
	}{
		{"", cur},
		{"version=current", cur},
		{"version=" + cur.Hash()[:8], cur},
		{"version=" + old.Hash()[:12], old},
		{"as_of=2023-06", old},
		{"as_of=2024-04-01", cur},
	}

	var hosts []string
	for _, l := range []*core.List{cur, old} {
		for _, s := range l.Sets() {
			for _, m := range s.Members() {
				hosts = append(hosts, m.Site)
			}
		}
	}
	slices.Sort(hosts)
	hosts = slices.Compact(hosts)

	// Seed member pairs of every (topRole, embRole) cell the current list
	// holds, so the corpus alone reaches each verdict-table cell.
	var cells [numRoles][numRoles]bool
	for _, set := range cur.Sets() {
		for _, top := range set.Members() {
			for _, emb := range set.Members() {
				if c := &cells[top.Role][emb.Role]; !*c {
					*c = true
					it, _ := slices.BinarySearch(hosts, top.Site)
					ie, _ := slices.BinarySearch(hosts, emb.Site)
					f.Add(uint16(it), uint16(ie), uint8(0), uint8(0), "", uint8(0), uint8(0))
				}
			}
		}
	}
	f.Add(uint16(0), uint16(1), uint8(0), uint8(0), "", uint8(0), uint8(0))
	f.Add(uint16(3), uint16(3), uint8(15), uint8(0), "", uint8(3), uint8(3))
	f.Add(uint16(7), uint16(len(hosts)), uint8(5), uint8(0), "off-list.invalid", uint8(1), uint8(2))
	f.Add(uint16(len(hosts)), uint16(len(hosts)), uint8(0), uint8(9), "OFF.invalid.", uint8(10), uint8(4))
	f.Add(uint16(len(hosts)), uint16(2), uint8(0), uint8(1), "<b>&x; \xff", uint8(8), uint8(5))
	f.Add(uint16(1), uint16(len(hosts)), uint8(2), uint8(0), "", uint8(6), uint8(1))
	f.Fuzz(func(t *testing.T, ia, ib uint16, how1, how2 uint8, off string, policy, pin uint8) {
		pick := func(i uint16, how uint8) string {
			if n := int(i) % (len(hosts) + 1); n < len(hosts) {
				return spellHost(hosts[n], how)
			}
			return off
		}
		a, b := pick(ia, how1), pick(ib, how2)
		p := pins[int(pin)%len(pins)]
		pol := int(policy) % (len(policySpellings) + 1)

		get := func(path string, params ...string) (int, []byte) {
			t.Helper()
			q := slices.Clone(params)
			if p.param != "" {
				q = append(q, p.param)
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path+"?"+strings.Join(q, "&"), nil))
			if rec.Code == http.StatusOK {
				if etag, want := rec.Header().Get("Etag"), `"`+p.list.Hash()+`"`; etag != want {
					t.Fatalf("%s?%s: ETag %s, want the pinned revision's %s", path, strings.Join(q, "&"), etag, want)
				}
			}
			return rec.Code, rec.Body.Bytes()
		}
		decode := func(body []byte, v any) {
			t.Helper()
			if err := json.Unmarshal(body, v); err != nil {
				t.Fatalf("decoding %s: %v", body, err)
			}
		}
		param := func(k, v string) string { return k + "=" + url.QueryEscape(v) }

		// /v1/sameset
		code, body := get("/v1/sameset", param("a", a), param("b", b))
		if a == "" || b == "" {
			if code != http.StatusBadRequest {
				t.Fatalf("sameset(%q, %q): status %d, want 400: %s", a, b, code, body)
			}
		} else {
			if code != http.StatusOK {
				t.Fatalf("sameset(%q, %q) %s: status %d: %s", a, b, p.param, code, body)
			}
			var got SameSetResponse
			decode(body, &got)
			want := SameSetResponse{A: echoed(t, a), B: echoed(t, b), SameSet: p.list.SameSet(a, b)}
			if want.SameSet {
				set, _, _ := p.list.FindSet(a)
				want.Primary = set.Primary
			}
			if got != want {
				t.Fatalf("sameset %s = %+v, oracle says %+v", p.param, got, want)
			}
		}

		// /v1/set
		code, body = get("/v1/set", param("site", a))
		if a == "" {
			if code != http.StatusBadRequest {
				t.Fatalf("set(%q): status %d, want 400: %s", a, code, body)
			}
		} else {
			if code != http.StatusOK {
				t.Fatalf("set(%q) %s: status %d: %s", a, p.param, code, body)
			}
			var got SetResponse
			decode(body, &got)
			want := SetResponse{Site: echoed(t, a)}
			if set, role, ok := p.list.FindSet(a); ok {
				want.Found, want.Role, want.Primary = true, role.String(), set.Primary
				for _, m := range set.Members() {
					want.Members = append(want.Members, SetMember{Site: m.Site, Role: m.Role.String(), AliasOf: m.AliasOf})
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("set %s = %+v, oracle says %+v", p.param, got, want)
			}
		}

		// /v1/partition
		params := []string{param("top", a), param("embedded", b)}
		live := policyOracle("rws", p.list)
		if pol < len(policySpellings) {
			params = append(params, param("policy", policySpellings[pol][0]))
			live = policyOracle(policySpellings[pol][1], p.list)
		}
		code, body = get("/v1/partition", params...)
		if a == "" || b == "" {
			if code != http.StatusBadRequest {
				t.Fatalf("partition(%q, %q): status %d, want 400: %s", a, b, code, body)
			}
			return
		}
		if code != http.StatusOK {
			t.Fatalf("partition(%q, %q) %v %s: status %d: %s", a, b, params, p.param, code, body)
		}
		var got PartitionResponse
		decode(body, &got)
		v := browser.EvaluateFresh(live, core.CanonicalHost(a), core.CanonicalHost(b))
		want := PartitionResponse{
			Policy:               live.Name(),
			Top:                  echoed(t, a),
			Embedded:             echoed(t, b),
			SameSet:              p.list.SameSet(a, b),
			PartitionedByDefault: live.PartitionByDefault(),
			Decision:             v.Decision.String(),
			Granted:              v.Granted,
		}
		if got != want {
			t.Fatalf("partition %v %s = %+v, oracle says %+v", params, p.param, got, want)
		}
	})
}
