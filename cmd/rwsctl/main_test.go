package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rwskit"
)

func TestStats(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"stats"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "sets:                 41") {
		t.Errorf("stats output:\n%s", out)
	}
	if !strings.Contains(out, "associated sites:     108") {
		t.Errorf("stats output:\n%s", out)
	}
}

func TestRelated(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"related", "bild.de", "autobild.de"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "RELATED") {
		t.Errorf("output: %s", sb.String())
	}
	sb.Reset()
	if err := run([]string{"related", "bild.de", "ya.ru"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "not related") {
		t.Errorf("output: %s", sb.String())
	}
}

func TestFind(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"find", "webvisor.com"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "primary: ya.ru") || !strings.Contains(out, "role:    associated") {
		t.Errorf("output:\n%s", out)
	}
	sb.Reset()
	if err := run([]string{"find", "unknown.example"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "not on the list") {
		t.Errorf("output: %s", sb.String())
	}
}

func TestValidateGoodAndBad(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	os.WriteFile(good, []byte(`{"primary":"https://example.com",
	  "associatedSites":["https://other.com"],
	  "rationaleBySite":{"https://other.com":"branding"}}`), 0o644)
	var sb strings.Builder
	if err := run([]string{"validate", good}, &sb); err != nil {
		t.Fatalf("good set failed: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "OK") {
		t.Errorf("output: %s", sb.String())
	}

	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte(`{"primary":"https://www.example.com","associatedSites":["https://a.example.com"]}`), 0o644)
	sb.Reset()
	if err := run([]string{"validate", bad}, &sb); err == nil {
		t.Fatal("bad set should fail")
	}
	if !strings.Contains(sb.String(), "eTLD+1") {
		t.Errorf("output: %s", sb.String())
	}
}

func TestDiff(t *testing.T) {
	dir := t.TempDir()
	oldP := filepath.Join(dir, "old.json")
	newP := filepath.Join(dir, "new.json")
	os.WriteFile(oldP, []byte(`{"sets":[{"primary":"https://a.com","associatedSites":["https://b.com"]}]}`), 0o644)
	os.WriteFile(newP, []byte(`{"sets":[{"primary":"https://a.com","associatedSites":["https://b.com","https://c.com"]},{"primary":"https://d.com"}]}`), 0o644)
	var sb strings.Builder
	if err := run([]string{"diff", oldP, newP}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "+ set d.com") || !strings.Contains(out, "+ member a.com:c.com") {
		t.Errorf("output:\n%s", out)
	}
}

// TestServe intercepts the blocking listen call and exercises the wired
// HTTP handler the way rwsctl serve would expose it.
func TestServe(t *testing.T) {
	orig := serveAndListen
	defer func() { serveAndListen = orig }()
	var handler http.Handler
	serveAndListen = func(addr string, h http.Handler) error {
		handler = h
		return nil
	}
	var sb strings.Builder
	if err := run([]string{"serve", "-addr", ":0"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "serving 41 sets") {
		t.Errorf("output: %s", sb.String())
	}
	if handler == nil {
		t.Fatal("serve never reached the listen call")
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/sameset?a=bild.de&b=autobild.de")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"same_set":true`) {
		t.Errorf("status %d body %s", resp.StatusCode, body)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"related", "only-one"},
		{"find"},
		{"validate"},
		{"diff", "one"},
		{"serve", "positional"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// timelineServer serves a small two-version store over httptest for the
// -server verbs.
func timelineServer(t *testing.T) *httptest.Server {
	t.Helper()
	oldList, err := rwskit.ParseList([]byte(`{"sets":[{"primary":"https://a.com","associatedSites":["https://b.com"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	newList, err := rwskit.ParseList([]byte(`{"sets":[{"primary":"https://a.com","associatedSites":["https://b.com","https://c.com"]},{"primary":"https://d.com"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	st := rwskit.NewServerStore(4)
	jan := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	if _, err := st.AddList(oldList, rwskit.Version{Source: "timeline:2023-01", ObservedAt: jan, AsOf: jan}); err != nil {
		t.Fatal(err)
	}
	feb := time.Date(2023, 2, 1, 0, 0, 0, 0, time.UTC)
	if _, err := st.AddList(newList, rwskit.Version{Source: "timeline:2023-02", ObservedAt: feb, AsOf: feb}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rwskit.NewServerFromStore(st))
	t.Cleanup(ts.Close)
	return ts
}

func TestVersionsVerb(t *testing.T) {
	ts := timelineServer(t)
	var sb strings.Builder
	if err := run([]string{"versions", "-server", ts.URL}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"2 of 4 version slots", "timeline:2023-01", "timeline:2023-02", "VERSION", "*"} {
		if !strings.Contains(out, want) {
			t.Errorf("versions output missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	if err := run([]string{"versions", "-server", ts.URL, "-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	var body struct {
		Retained int `json:"retained"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &body); err != nil || body.Retained != 2 {
		t.Errorf("-json output: %v, %s", err, sb.String())
	}
}

func TestDiffVerbAgainstServer(t *testing.T) {
	ts := timelineServer(t)
	var sb strings.Builder
	if err := run([]string{"diff", "-server", ts.URL, "2023-01", "current"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"+ set d.com", "+ member a.com:c.com", "2023-01-01"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff output missing %q:\n%s", want, out)
		}
	}

	// Identical endpoints: "no changes".
	sb.Reset()
	if err := run([]string{"diff", "-server", ts.URL, "current", "current"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no semantic changes") {
		t.Errorf("self-diff output:\n%s", sb.String())
	}

	// -json passes the server body through.
	sb.Reset()
	if err := run([]string{"diff", "-server", ts.URL, "-json", "2023-01", "current"}, &sb); err != nil {
		t.Fatal(err)
	}
	var body struct {
		AddedSets []string `json:"added_sets"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &body); err != nil || len(body.AddedSets) != 1 {
		t.Errorf("-json diff: %v, %s", err, sb.String())
	}

	// Server-side resolution failures surface the server's error.
	if err := run([]string{"diff", "-server", ts.URL, "2020-01", "current"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "no version") {
		t.Errorf("unknown as-of: err = %v", err)
	}
}

func TestChurnVerb(t *testing.T) {
	ts := timelineServer(t)
	var sb strings.Builder
	if err := run([]string{"churn", "-server", ts.URL}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"2 versions", "granularity step", "STEP", "+SETS", "cumulative:", "sets churned", "most volatile sets", "d.com"} {
		if !strings.Contains(out, want) {
			t.Errorf("churn output missing %q:\n%s", want, out)
		}
	}

	// Explicit endpoints and -json pass-through.
	sb.Reset()
	if err := run([]string{"churn", "-server", ts.URL, "-json", "2023-01", "current"}, &sb); err != nil {
		t.Fatal(err)
	}
	var body struct {
		Steps []struct {
			SetsAdded int `json:"sets_added"`
		} `json:"steps"`
		SetsChurned int `json:"sets_churned"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &body); err != nil {
		t.Fatalf("-json churn: %v, %s", err, sb.String())
	}
	if len(body.Steps) != 1 || body.Steps[0].SetsAdded != 1 || body.SetsChurned != 2 {
		t.Errorf("-json churn = %+v, want one step adding d.com and churning 2 sets", body)
	}

	// Server-side failures surface the server's error.
	if err := run([]string{"churn", "-server", ts.URL, "2020-01"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "no version") {
		t.Errorf("unknown from: err = %v", err)
	}
	// Usage errors.
	if err := run([]string{"churn"}, &sb); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Errorf("missing -server: err = %v", err)
	}
}
