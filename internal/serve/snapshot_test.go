package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"rwskit/internal/browser"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
)

func testList(t testing.TB) *core.List {
	t.Helper()
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	return list
}

// hostVariants spells a canonical host every way the query path must
// accept: scheme prefixes, :port suffixes, trailing dots and slashes,
// mixed case, and surrounding whitespace.
func hostVariants(host string) []string {
	return []string{
		host,
		strings.ToUpper(host),
		"https://" + host,
		"http://" + host,
		host + ":443",
		host + ":8443",
		"http://" + host + ":80/",
		host + ".",
		"HTTPS://" + strings.ToUpper(host) + ":443/",
		"  " + host + "  ",
	}
}

// TestNormalizationAcrossEndpoints holds every /v1/* endpoint to the same
// answer for every legitimate spelling of a member host — the false
// negatives the PR-2 bugfix removes.
func TestNormalizationAcrossEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	for _, spelling := range hostVariants("bild.de") {
		q := url.Values{"a": {spelling}, "b": {"autobild.de"}}
		var ss SameSetResponse
		if code := getJSON(t, ts.URL+"/v1/sameset?"+q.Encode(), &ss); code != http.StatusOK {
			t.Fatalf("sameset(%q): status %d", spelling, code)
		}
		if !ss.SameSet || ss.Primary != "bild.de" {
			t.Errorf("sameset(%q, autobild.de) = %+v, want same_set with primary bild.de", spelling, ss)
		}

		q = url.Values{"site": {spelling}}
		var sr SetResponse
		if code := getJSON(t, ts.URL+"/v1/set?"+q.Encode(), &sr); code != http.StatusOK {
			t.Fatalf("set(%q): status %d", spelling, code)
		}
		if !sr.Found || sr.Primary != "bild.de" || sr.Role != "primary" {
			t.Errorf("set(%q) = %+v, want found primary bild.de", spelling, sr)
		}

		q = url.Values{"top": {spelling}, "embedded": {"autobild.de"}}
		var pr PartitionResponse
		if code := getJSON(t, ts.URL+"/v1/partition?"+q.Encode(), &pr); code != http.StatusOK {
			t.Fatalf("partition(%q): status %d", spelling, code)
		}
		if !pr.SameSet || pr.Decision != "granted-auto" || !pr.Granted {
			t.Errorf("partition(top=%q) = %+v, want same-set granted-auto", spelling, pr)
		}
	}

	// A port-suffixed spelling of the embedded site must match too.
	var pr PartitionResponse
	q := url.Values{"top": {"bild.de"}, "embedded": {"autobild.de:443"}}
	if code := getJSON(t, ts.URL+"/v1/partition?"+q.Encode(), &pr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !pr.SameSet || pr.Decision != "granted-auto" {
		t.Errorf("partition(embedded=autobild.de:443) = %+v", pr)
	}

	// Spellings that are NOT the same host must stay misses.
	var ss SameSetResponse
	q = url.Values{"a": {"notbild.de"}, "b": {"autobild.de"}}
	if code := getJSON(t, ts.URL+"/v1/sameset?"+q.Encode(), &ss); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if ss.SameSet {
		t.Error("notbild.de should not be related to autobild.de")
	}
}

// TestSameSetMatchesScan is the property test: the indexed SameSet and the
// full-scan ablation must agree on every sampled pair of spellings over
// the embedded snapshot, on-list and off-list alike.
func TestSameSetMatchesScan(t *testing.T) {
	list := testList(t)
	var sites []string
	for _, s := range list.Sets() {
		sites = append(sites, s.Sites()...)
	}
	sites = append(sites, "off-list.example", "nosuch.example")

	rng := rand.New(rand.NewSource(1))
	spell := func(host string) string {
		v := hostVariants(host)
		return v[rng.Intn(len(v))]
	}
	for i := 0; i < 4000; i++ {
		a := spell(sites[rng.Intn(len(sites))])
		b := spell(sites[rng.Intn(len(sites))])
		if got, want := list.SameSet(a, b), list.SameSetScan(a, b); got != want {
			t.Fatalf("SameSet(%q, %q) = %v, SameSetScan = %v", a, b, got, want)
		}
	}
}

// TestPartitionTableMatchesLive holds the precomputed verdict table to the
// live fresh-profile simulation: every ordered same-set member pair, a
// cross-set sweep, and off-list fallbacks, under all four policies.
func TestPartitionTableMatchesLive(t *testing.T) {
	list := testList(t)
	snap := mustBuild(t, list)
	policies := []string{"rws", "strict", "prompt", "legacy"}

	check := func(policy, top, emb string) {
		t.Helper()
		got, err := snap.Partition(policy, top, emb)
		if err != nil {
			t.Fatal(err)
		}
		pid, err := policyFor(policy)
		if err != nil {
			t.Fatal(err)
		}
		want := browser.EvaluateFresh(snap.policies[pid].live,
			core.CanonicalHost(top), core.CanonicalHost(emb))
		if got.Decision != want.Decision.String() || got.Granted != want.Granted {
			t.Errorf("partition(%s, top=%s, embedded=%s) = %s/granted=%v, live says %s/granted=%v",
				policy, top, emb, got.Decision, got.Granted, want.Decision, want.Granted)
		}
	}

	for _, policy := range policies {
		// Every ordered pair within every set (covers every (topRole,
		// embRole) cell the list can produce, including same-host pairs).
		for _, set := range list.Sets() {
			sites := set.Sites()
			for _, top := range sites {
				for _, emb := range sites {
					check(policy, top, emb)
				}
			}
		}
		// Cross-set pairs: each set's primary against the next set's.
		sets := list.Sets()
		for i := range sets {
			check(policy, sets[i].Primary, sets[(i+1)%len(sets)].Primary)
		}
		// Off-list fallbacks, both directions, plus off-list same-host.
		check(policy, "off-list.example", sets[0].Primary)
		check(policy, sets[0].Primary, "off-list.example")
		check(policy, "off-a.example", "off-b.example")
		check(policy, "off-a.example", "off-a.example")
	}
}

func TestSnapshotAccessors(t *testing.T) {
	list := testList(t)
	snap := mustBuild(t, list)
	if snap.List() != list {
		t.Error("List() should return the source list")
	}
	if snap.Hash() != list.Hash() {
		t.Error("Hash() should match the list hash")
	}
	if snap.NumSets() != list.NumSets() || snap.NumSites() != list.NumSites() {
		t.Errorf("counts = %d/%d, want %d/%d", snap.NumSets(), snap.NumSites(), list.NumSets(), list.NumSites())
	}
	// Every member resolves through the host index to its own set and
	// role, and the index holds nothing else.
	perRole := map[core.Role]int{}
	for i, set := range list.Sets() {
		for _, m := range set.Members() {
			e, ok := snap.lookup(m.Site)
			if !ok || e.set != set || int(e.setIdx) != i || e.role != m.Role {
				t.Errorf("lookup(%q) = %+v, %v, want set %s (index %d) role %s", m.Site, e, ok, set.Primary, i, m.Role)
			}
			perRole[m.Role]++
		}
	}
	st := list.Stats()
	if perRole[core.RolePrimary] != list.NumSets() || perRole[core.RoleAssociated] != st.AssociatedSites ||
		perRole[core.RoleService] != st.ServiceSites || perRole[core.RoleCCTLD] != st.CCTLDSites {
		t.Errorf("members per role = %v, want the list's composition %+v", perRole, st)
	}
	if len(snap.hosts) != list.NumSites() {
		t.Errorf("host index holds %d hosts, want %d", len(snap.hosts), list.NumSites())
	}
}

func TestSameSetBatch(t *testing.T) {
	_, ts := newTestServer(t)
	pairs := "bild.de,autobild.de;bild.de,ya.ru;https://webvisor.com,YA.RU:443;nosuch.example,bild.de"
	u := ts.URL + "/v1/sameset?pairs=" + url.QueryEscape(pairs)

	var body SameSetBatchResponse
	if code := getJSON(t, u, &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body.Pairs != 4 || len(body.Results) != 4 {
		t.Fatalf("batch = %+v, want 4 results", body)
	}
	wantSame := []bool{true, false, true, false}
	wantPrimary := []string{"bild.de", "", "ya.ru", ""}
	for i, res := range body.Results {
		if res.SameSet != wantSame[i] || res.Primary != wantPrimary[i] {
			t.Errorf("pair %d = %+v, want same_set=%v primary=%q", i, res, wantSame[i], wantPrimary[i])
		}
	}
	if body.Results[2].A != "https://webvisor.com" {
		t.Errorf("batch results should echo the input spelling, got %q", body.Results[2].A)
	}

	// The documented raw syntax — semicolons NOT percent-encoded, as a
	// curl user would type it — must parse identically: Go's url.Values
	// drops keys with raw semicolons, so the handler scans the raw query.
	var raw SameSetBatchResponse
	if code := getJSON(t, ts.URL+"/v1/sameset?pairs="+pairs, &raw); code != http.StatusOK {
		t.Fatalf("raw semicolons: status %d", code)
	}
	if len(raw.Results) != 4 || !raw.Results[0].SameSet || raw.Results[0].Primary != "bild.de" {
		t.Errorf("raw-semicolon batch = %+v", raw)
	}

	// Byte-determinism: the same request must produce identical bytes.
	read := func() []byte {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if first, second := read(), read(); !bytes.Equal(first, second) {
		t.Error("batch response is not byte-deterministic")
	}
}

func TestSameSetBatchErrors(t *testing.T) {
	_, ts := newTestServer(t)
	tooMany := strings.Repeat("a.com,b.com;", maxBatchPairs) + "a.com,b.com"
	for _, tc := range []string{
		"/v1/sameset?pairs=" + url.QueryEscape("bild.de"),                  // no comma
		"/v1/sameset?pairs=" + url.QueryEscape("bild.de,"),                 // empty b
		"/v1/sameset?pairs=" + url.QueryEscape(",bild.de"),                 // empty a
		"/v1/sameset?pairs=" + url.QueryEscape("a.com,b.com") + "&a=x&b=y", // mixed modes
		"/v1/sameset?pairs=" + url.QueryEscape(tooMany),                    // over the cap
	} {
		var body struct {
			Error string `json:"error"`
		}
		if code := getJSON(t, ts.URL+tc, &body); code != http.StatusBadRequest {
			t.Errorf("%.80s: status %d, want 400", tc, code)
		}
		if body.Error == "" {
			t.Errorf("%.80s: empty error body", tc)
		}
	}
}

func postJSON(t *testing.T, url string, reqBody any, into any) int {
	t.Helper()
	raw, err := json.Marshal(reqBody)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("%s: decoding body: %v", url, err)
	}
	return resp.StatusCode
}

func TestPartitionBatch(t *testing.T) {
	_, ts := newTestServer(t)
	req := PartitionBatchRequest{
		Policy: "rws",
		Queries: []PartitionQuery{
			{Top: "bild.de", Embedded: "autobild.de"},
			{Top: "https://bild.de:443", Embedded: "AUTOBILD.DE."},
			{Top: "bild.de", Embedded: "ya.ru"},
			{Top: "bild.de", Embedded: "autobild.de", Policy: "strict"},
		},
	}
	var body PartitionBatchResponse
	if code := postJSON(t, ts.URL+"/v1/partition/batch", req, &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body.Queries != 4 || len(body.Results) != 4 {
		t.Fatalf("batch = %+v", body)
	}
	wantDecision := []string{"granted-auto", "granted-auto", "denied-by-prompt", "denied"}
	wantPolicy := []string{"chrome-rws", "chrome-rws", "chrome-rws", "strict-partitioning"}
	for i, res := range body.Results {
		if res.Decision != wantDecision[i] || res.Policy != wantPolicy[i] {
			t.Errorf("query %d = %s under %s, want %s under %s",
				i, res.Decision, res.Policy, wantDecision[i], wantPolicy[i])
		}
	}
}

func TestPartitionBatchErrors(t *testing.T) {
	_, ts := newTestServer(t)
	u := ts.URL + "/v1/partition/batch"
	var body struct {
		Error string `json:"error"`
	}

	for name, req := range map[string]PartitionBatchRequest{
		"empty queries":  {},
		"missing fields": {Queries: []PartitionQuery{{Top: "a.com"}}},
		"bad policy":     {Queries: []PartitionQuery{{Top: "a.com", Embedded: "b.com", Policy: "bogus"}}},
	} {
		body.Error = ""
		if code := postJSON(t, u, req, &body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
		if body.Error == "" {
			t.Errorf("%s: empty error body", name)
		}
	}

	// Unknown fields are schema drift, not silently dropped.
	resp, err := http.Post(u, "application/json", strings.NewReader(`{"queries":[],"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}

	// GET is not allowed on the batch endpoint.
	resp, err = http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}

	// Over the query cap.
	big := PartitionBatchRequest{Queries: make([]PartitionQuery, maxBatchPairs+1)}
	for i := range big.Queries {
		big.Queries[i] = PartitionQuery{Top: "a.com", Embedded: "b.com"}
	}
	body.Error = ""
	if code := postJSON(t, u, big, &body); code != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", code)
	}
}

func TestMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	mustGet := func(path string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	mustGet("/v1/sameset?a=bild.de&b=autobild.de")
	mustGet("/v1/sameset?a=bild.de&b=autobild.de")
	mustGet("/v1/sameset") // error: missing params
	mustGet("/no/such/path")

	var body MetricsResponse
	if code := getJSON(t, ts.URL+"/v1/metrics", &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body.SnapshotHash == "" {
		t.Error("metrics should carry the snapshot hash")
	}
	byName := make(map[string]EndpointMetrics, len(body.Endpoints))
	for _, em := range body.Endpoints {
		byName[em.Endpoint] = em
	}
	ss := byName["/v1/sameset"]
	if ss.Requests != 3 || ss.Errors != 1 {
		t.Errorf("/v1/sameset metrics = %+v, want 3 requests / 1 error", ss)
	}
	if ss.MeanLatencyMicros < 0 {
		t.Errorf("negative latency: %+v", ss)
	}
	other := byName["other"]
	if other.Requests != 1 || other.Errors != 1 {
		t.Errorf("other metrics = %+v, want 1 request / 1 error", other)
	}
	if _, ok := byName["/v1/partition/batch"]; !ok {
		t.Error("metrics should list every endpoint, hit or not")
	}
}

// TestNotFoundJSON: unmatched routes must stay inside the JSON contract.
func TestNotFoundJSON(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/", "/v2/nope", "/v1/sameset/extra"} {
		var body struct {
			Error string `json:"error"`
		}
		if code := getJSON(t, ts.URL+path, &body); code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, code)
		}
		if !strings.Contains(body.Error, "no such endpoint") {
			t.Errorf("%s: error = %q", path, body.Error)
		}
	}
}

// TestWriteJSONEncodeFailure: an unencodable value must surface as a 500
// JSON envelope, not a truncated 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"bad": func() {}}, true)
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("500 body is not the JSON envelope: %v (%q)", err, rec.Body.String())
	}
	if !strings.Contains(body.Error, "encoding response") {
		t.Errorf("error = %q", body.Error)
	}
}

// TestStatsCarriesSnapshotHash pins the new stats fields and that the
// hash changes across a swap.
func TestStatsCarriesSnapshotHash(t *testing.T) {
	s, ts := newTestServer(t)
	var before StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &before); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if before.SnapshotHash == "" {
		t.Fatal("stats should carry the snapshot hash")
	}
	alt, err := core.ParseJSON([]byte(`{"sets":[{"primary":"https://example.com","associatedSites":["https://example-blog.com"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	swapList(t, s, alt)
	var after StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &after); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if after.SnapshotHash == before.SnapshotHash {
		t.Error("snapshot hash should change when the list changes")
	}
	if fmt.Sprintf("%x", "") == after.SnapshotHash {
		t.Error("hash should be non-trivial")
	}
}
