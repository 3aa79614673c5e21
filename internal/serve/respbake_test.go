package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"rwskit/internal/amplify"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
)

// golden renders v as the documented encoding/json output of a response
// struct: compact, or indented as Encoder.SetIndent("", "  ") renders it,
// with the trailing newline either way.
func golden(t *testing.T, v any, pretty bool) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if pretty {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// indented is what ?pretty=1 writes for a compact body.
func indented(t *testing.T, body []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, body, "", "  "); err != nil {
		t.Fatalf("json.Indent(%s): %v", body, err)
	}
	return buf.String()
}

// prebakedTestLists is the golden-test corpus: the embedded real list
// and amplified lists, plus the embedded list through the serial
// reference build.
func prebakedTestLists(t *testing.T) map[string]*Snapshot {
	t.Helper()
	embedded, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	snaps := map[string]*Snapshot{
		"embedded":        BuildSnapshot(embedded),
		"embedded-serial": buildSerial(embedded),
	}
	for _, seed := range []int64{1, 2} {
		list, err := amplify.Generate(amplify.Config{Sets: 200, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		snaps[fmt.Sprintf("amplified-seed%d", seed)] = BuildSnapshot(list)
	}
	return snaps
}

// goldenPairs is a cross-section of pair shapes over snap's list:
// same-set both ways, cross-set, same-host, off-list on one or both
// sides, and non-canonical spellings.
func goldenPairs(snap *Snapshot) [][2]string {
	sets := snap.List().Sets()
	first := sets[0].Members()
	mid := sets[len(sets)/2].Members()
	return [][2]string{
		{first[0].Site, first[len(first)-1].Site},
		{first[len(first)-1].Site, first[0].Site},
		{first[0].Site, mid[0].Site},
		{mid[0].Site, mid[0].Site},
		{"off-list.invalid", "OFF-LIST.invalid."},
		{first[0].Site, "off-list.invalid"},
		{"off-a.invalid", "off-b.invalid"},
		{"HTTPS://" + first[0].Site + ":443", mid[len(mid)-1].Site + "."},
		{"<b>&x", "\u2028\xff"},
	}
}

// TestPrebakedResponsesMatchLiveEncode is the golden test of the one
// encoder: for sameset, set, partition and stats, single and batch, the
// append* bytes equal encoding/json's output for the documented response
// structs the typed Snapshot methods return — across the embedded and
// amplified lists, for every pair shape
// (same-set, cross-set, same-host, off-list, miss) and every policy
// spelling — and ?pretty=1 (json.Indent over those bytes) equals the
// struct encoded with SetIndent. The http-versions subtest drives the
// same comparison through ServeHTTP for the current and a pinned
// version.
func TestPrebakedResponsesMatchLiveEncode(t *testing.T) {
	check := func(t *testing.T, what string, got []byte, want any) {
		t.Helper()
		if g, w := string(got), golden(t, want, false); g != w {
			t.Errorf("%s = %s, want %s", what, g, w)
		}
		if g, w := indented(t, got), golden(t, want, true); g != w {
			t.Errorf("%s pretty = %s, want %s", what, g, w)
		}
	}
	policies := []string{"", "rws", "chrome", "strict", "brave", "prompt", "firefox", "safari", "legacy", "unpartitioned"}
	for label, snap := range prebakedTestLists(t) {
		t.Run(label, func(t *testing.T) {
			pairs := goldenPairs(snap)
			batch := SameSetBatchResponse{Pairs: len(pairs), Results: make([]SameSetResponse, len(pairs))}
			for i, p := range pairs {
				batch.Results[i] = snap.SameSet(p[0], p[1])
				check(t, fmt.Sprintf("appendSameSet(%q, %q)", p[0], p[1]), snap.appendSameSet(nil, p[0], p[1]), batch.Results[i])
			}
			check(t, "appendSameSetBatch", snap.appendSameSetBatch(nil, pairs), batch)

			for _, p := range pairs {
				check(t, fmt.Sprintf("appendSet(%q)", p[0]), snap.appendSet(nil, p[0]), snap.Set(p[0]))
			}

			var queries []PartitionQuery
			var pids []policyID
			pbatch := PartitionBatchResponse{}
			for _, policy := range policies {
				pid, err := policyFor(policy)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range pairs {
					resp, err := snap.Partition(policy, p[0], p[1])
					if err != nil {
						t.Fatalf("Partition(%q, %q, %q): %v", policy, p[0], p[1], err)
					}
					check(t, fmt.Sprintf("appendPartition(%q, %q, %q)", policy, p[0], p[1]), snap.appendPartition(nil, pid, p[0], p[1]), resp)
					queries = append(queries, PartitionQuery{Top: p[0], Embedded: p[1], Policy: policy})
					pids = append(pids, pid)
					pbatch.Results = append(pbatch.Results, resp)
				}
			}
			pbatch.Queries = len(queries)
			check(t, "appendPartitionBatch", snap.appendPartitionBatch(nil, queries, pids), pbatch)

			st := snap.list.Stats()
			for _, counters := range [][2]uint64{{0, 0}, {1, 1}, {123456789, 42}} {
				check(t, fmt.Sprintf("appendStats(%d, %d)", counters[0], counters[1]), snap.appendStats(nil, counters[0], counters[1]), StatsResponse{
					Sets:            st.Sets,
					Sites:           snap.NumSites(),
					AssociatedSites: st.AssociatedSites,
					ServiceSites:    st.ServiceSites,
					CCTLDSites:      st.CCTLDSites,
					MeanAssociated:  st.MeanAssociatedPerSet,
					SnapshotHash:    snap.hash,
					Requests:        counters[0],
					ListSwaps:       counters[1],
				})
			}
			check(t, "writeList", listBody(snap), snap.List())
		})
	}

	t.Run("http-versions", func(t *testing.T) {
		old, err := amplify.Generate(amplify.Config{Sets: 200, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		cur, err := dataset.List()
		if err != nil {
			t.Fatal(err)
		}
		st := NewStore(4)
		jan := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
		mustAdd(t, st, old, core.Version{Source: "old", ObservedAt: jan, AsOf: jan})
		mustAdd(t, st, cur, core.Version{Source: "cur", ObservedAt: time.Now(), AsOf: time.Now()})
		s := NewFromStore(st)
		get := func(method, path, body string) []byte {
			t.Helper()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
			}
			return rec.Body.Bytes()
		}
		oldSnap, _, err := st.ByHash(old.Hash())
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			pin  string
			snap *Snapshot
		}{
			{"", st.Current()},
			{"&version=" + old.Hash()[:12], oldSnap},
			{"&as_of=2023-06", oldSnap},
		} {
			snap := tc.snap
			pairs := goldenPairs(snap)
			for _, pretty := range []bool{false, true} {
				pin := tc.pin
				if pretty {
					pin += "&pretty=1"
				}
				compare := func(path string, got []byte, want any) {
					t.Helper()
					if g, w := string(got), golden(t, want, pretty); g != w {
						t.Errorf("%s = %s, want %s", path, g, w)
					}
				}
				var spec []string
				for _, p := range pairs {
					a, b := url.QueryEscape(p[0]), url.QueryEscape(p[1])
					path := "/v1/sameset?a=" + a + "&b=" + b + pin
					compare(path, get(http.MethodGet, path, ""), snap.SameSet(p[0], p[1]))
					spec = append(spec, p[0]+","+p[1])

					path = "/v1/set?site=" + a + pin
					compare(path, get(http.MethodGet, path, ""), snap.Set(p[0]))

					resp, err := snap.Partition("strict", p[0], p[1])
					if err != nil {
						t.Fatal(err)
					}
					path = "/v1/partition?top=" + a + "&embedded=" + b + "&policy=strict" + pin
					compare(path, get(http.MethodGet, path, ""), resp)
				}
				// The batch echoes each side as parsePairs trimmed it.
				parsed, err := parsePairs(strings.Join(spec, ";"))
				if err != nil {
					t.Fatal(err)
				}
				batch := SameSetBatchResponse{Pairs: len(parsed)}
				for _, p := range parsed {
					batch.Results = append(batch.Results, snap.SameSet(p[0], p[1]))
				}
				path := "/v1/sameset?pairs=" + url.QueryEscape(strings.Join(spec, ";")) + pin
				compare(path, get(http.MethodGet, path, ""), batch)

				path = "/v1/stats?" + strings.TrimPrefix(pin, "&")
				var stats StatsResponse
				if err := json.Unmarshal(get(http.MethodGet, path, ""), &stats); err != nil {
					t.Fatal(err)
				}
				if stats.SnapshotHash != snap.hash || stats.Sets != snap.NumSets() {
					t.Errorf("%s answered %.12s (%d sets), want %.12s", path, stats.SnapshotHash, stats.Sets, snap.hash)
				}
			}
		}

		// The POST batch form answers from the current version, echoing
		// the hosts as the request body decodes them.
		snap := st.Current()
		req := PartitionBatchRequest{Policy: "prompt"}
		for i, p := range goldenPairs(snap) {
			q := PartitionQuery{Top: p[0], Embedded: p[1]}
			if i%2 == 1 {
				q.Policy = "legacy"
			}
			req.Queries = append(req.Queries, q)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var decoded PartitionBatchRequest
		if err := json.Unmarshal(body, &decoded); err != nil {
			t.Fatal(err)
		}
		want := PartitionBatchResponse{Queries: len(decoded.Queries)}
		for _, q := range decoded.Queries {
			policy := q.Policy
			if policy == "" {
				policy = decoded.Policy
			}
			resp, err := snap.Partition(policy, q.Top, q.Embedded)
			if err != nil {
				t.Fatal(err)
			}
			want.Results = append(want.Results, resp)
		}
		for _, pretty := range []bool{false, true} {
			path := "/v1/partition/batch"
			if pretty {
				path += "?pretty=1"
			}
			if got, w := string(get(http.MethodPost, path, string(body))), golden(t, want, pretty); got != w {
				t.Errorf("POST %s = %s, want %s", path, got, w)
			}
		}
	})
}

// TestAppendJSONFloatMatchesMarshal holds the stats body's float encoder
// to encoding/json on both sides of its format switches (exponent form
// below 1e-6 and from 1e21 up, e-07 shortened to e-7). No real list's
// mean reaches the exponent branch, so the golden stats test cannot.
func TestAppendJSONFloatMatchesMarshal(t *testing.T) {
	for _, f := range []float64{0, 1e-7, 5e-7, 1e-6, 0.1, 1.5, 123.456, 1e20, 1e21} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat([]byte("x"), f); string(got) != "x"+string(want) {
			t.Errorf("appendJSONFloat(%g) = %s, want x%s", f, got, want)
		}
	}
}

// TestFastPathMatchesSlowPathOverHTTP drives the real server twice per
// query — once with plain values, once with a percent-encoded character
// the query scanner must decode — and requires byte-equal bodies. This
// pins the whole request path (mux, instrument, envelope), not just the
// fragment assembly.
func TestFastPathMatchesSlowPathOverHTTP(t *testing.T) {
	_, ts := newTestServer(t)
	fetch := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	sets := list.Sets()
	a := sets[0].Members()[0].Site
	b := sets[0].Members()[len(sets[0].Members())-1].Site
	c := sets[1].Members()[0].Site
	// Percent-encoding the first byte decodes to the same host.
	escape := func(h string) string { return fmt.Sprintf("%%%02X%s", h[0], h[1:]) }
	queries := [][2]string{
		{"/v1/sameset?a=" + a + "&b=" + b, "/v1/sameset?a=" + escape(a) + "&b=" + escape(b)},
		{"/v1/sameset?a=" + a + "&b=" + c, "/v1/sameset?a=" + escape(a) + "&b=" + escape(c)},
		{"/v1/set?site=" + a, "/v1/set?site=" + escape(a)},
		{"/v1/set?site=nope.invalid", "/v1/set?site=nope%2Einvalid"},
		{"/v1/partition?top=" + a + "&embedded=" + b, "/v1/partition?top=" + escape(a) + "&embedded=" + escape(b)},
		{"/v1/partition?top=" + a + "&embedded=" + c + "&policy=strict", "/v1/partition?top=" + escape(a) + "&embedded=" + escape(c) + "&policy=strict"},
	}
	for _, q := range queries {
		if plain, escaped := fetch(q[0]), fetch(q[1]); plain != escaped {
			t.Errorf("%s = %s, but %s = %s", q[0], plain, q[1], escaped)
		}
	}
	// The pretty opt-in really is indented, and decodes to the same value.
	pretty := fetch("/v1/sameset?a=" + a + "&b=" + b + "&pretty=1")
	compact := fetch("/v1/sameset?a=" + a + "&b=" + b)
	if !strings.Contains(pretty, "\n  ") {
		t.Errorf("pretty=1 body not indented: %q", pretty)
	}
	var pv, cv SameSetResponse
	if err := json.Unmarshal([]byte(pretty), &pv); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(compact), &cv); err != nil {
		t.Fatal(err)
	}
	if pv != cv {
		t.Errorf("pretty %+v != compact %+v", pv, cv)
	}
}

// discardRW is a reusable ResponseWriter that costs nothing per request,
// so AllocsPerRun and the gated benchmarks measure the handler's own
// allocations rather than httptest.NewRecorder's.
type discardRW struct {
	h      http.Header
	status int
	n      int
}

func newDiscardRW() *discardRW { return &discardRW{h: make(http.Header, 4)} }

func (d *discardRW) Header() http.Header { return d.h }

func (d *discardRW) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

func (d *discardRW) WriteHeader(status int) { d.status = status }

// TestPrebakedHandlersZeroAlloc asserts the hot endpoints allocate
// nothing per request through the full Server.ServeHTTP stack (mux
// dispatch, instrument, query scan, fragment assembly, envelope) for
// plain current-version queries, conditional ones included.
func TestPrebakedHandlersZeroAlloc(t *testing.T) {
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	s := New(list)
	sets := list.Sets()
	a := sets[0].Members()[0].Site
	b := sets[0].Members()[len(sets[0].Members())-1].Site
	for _, path := range []string{
		"/v1/sameset?a=" + a + "&b=" + b,
		"/v1/set?site=" + a,
		"/v1/partition?top=" + a + "&embedded=" + b,
		"/v1/stats",
	} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rw := newDiscardRW()
		s.ServeHTTP(rw, req) // warm pools and the header map
		if rw.status != 0 && rw.status != http.StatusOK {
			t.Fatalf("%s: status %d", path, rw.status)
		}
		allocs := testing.AllocsPerRun(200, func() {
			s.ServeHTTP(rw, req)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", path, allocs)
		}
	}
}
