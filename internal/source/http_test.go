package source

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// listServer is a scriptable upstream: it serves body under etag,
// honouring If-None-Match with a 304, and counts what it saw.
type listServer struct {
	mu           sync.Mutex
	body         string
	etag         string
	lastModified string
	hits         int
	conditional  int // requests carrying If-None-Match or If-Modified-Since
	notModified  int // 304 responses served
}

func (u *listServer) set(body, etag string) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.body, u.etag = body, etag
}

func (u *listServer) counts() (hits, conditional, notModified int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.hits, u.conditional, u.notModified
}

func (u *listServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.hits++
	inm, ims := r.Header.Get("If-None-Match"), r.Header.Get("If-Modified-Since")
	if inm != "" || ims != "" {
		u.conditional++
	}
	if inm != "" && inm == u.etag {
		u.notModified++
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if u.etag != "" {
		w.Header().Set("ETag", u.etag)
	}
	if u.lastModified != "" {
		w.Header().Set("Last-Modified", u.lastModified)
	}
	fmt.Fprint(w, u.body)
}

// fastHTTP returns an HTTPSource with test-speed retries.
func fastHTTP(url string) *HTTPSource {
	return NewHTTPSource(url, HTTPConfig{
		Attempts:   3,
		Backoff:    time.Millisecond,
		BackoffCap: 2 * time.Millisecond,
	})
}

// TestHTTPSourceConditionalSequence walks the canonical lifecycle:
// 200 (unconditional) → 304 (conditional, unchanged) → 200 under a
// changed ETag (new revision).
func TestHTTPSourceConditionalSequence(t *testing.T) {
	ctx := context.Background()
	up := &listServer{body: oneSetJSON, etag: `"v1"`, lastModified: "Tue, 26 Mar 2024 00:00:00 GMT"}
	ts := httptest.NewServer(up)
	defer ts.Close()
	src := fastHTTP(ts.URL)

	list, meta, err := src.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if list.NumSets() != 1 || meta.ETag != `"v1"` || meta.LastModified == "" || meta.Hash != list.Hash() {
		t.Errorf("first fetch: %d sets, meta %+v", list.NumSets(), meta)
	}
	if _, conditional, _ := countsOf(up); conditional != 0 {
		t.Error("first fetch must be unconditional")
	}

	// Unchanged upstream: the poll is conditional and lands a 304.
	if _, _, err := src.Fetch(ctx); !errors.Is(err, ErrNotModified) {
		t.Errorf("unchanged: err = %v, want ErrNotModified", err)
	}
	if _, conditional, notModified := countsOf(up); conditional != 1 || notModified != 1 {
		t.Errorf("unchanged poll: conditional=%d notModified=%d, want 1/1", conditional, notModified)
	}

	// New revision under a new ETag.
	up.set(twoSetJSON, `"v2"`)
	list, meta, err = src.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if list.NumSets() != 2 || meta.ETag != `"v2"` {
		t.Errorf("changed: %d sets, meta %+v", list.NumSets(), meta)
	}

	// And the next poll is conditional against the NEW validator.
	if _, _, err := src.Fetch(ctx); !errors.Is(err, ErrNotModified) {
		t.Errorf("post-swap poll: err = %v, want ErrNotModified", err)
	}
}

func countsOf(u *listServer) (int, int, int) { return u.counts() }

// TestHTTPSourceHashGate: a server that re-serializes identical content
// under a fresh ETag (no 304 ever) still must not report a change.
func TestHTTPSourceHashGate(t *testing.T) {
	ctx := context.Background()
	up := &listServer{body: oneSetJSON, etag: `"v1"`}
	ts := httptest.NewServer(up)
	defer ts.Close()
	src := fastHTTP(ts.URL)
	if _, _, err := src.Fetch(ctx); err != nil {
		t.Fatal(err)
	}
	up.set(reserializedOneSetJSON, `"v2"`)
	if _, _, err := src.Fetch(ctx); !errors.Is(err, ErrNotModified) {
		t.Errorf("identical semantics under new ETag: err = %v, want ErrNotModified", err)
	}
}

// TestHTTPSourceInvalidate: dropping the validators makes the next fetch
// unconditional, and the hash gate still holds.
func TestHTTPSourceInvalidate(t *testing.T) {
	ctx := context.Background()
	up := &listServer{body: oneSetJSON, etag: `"v1"`}
	ts := httptest.NewServer(up)
	defer ts.Close()
	src := fastHTTP(ts.URL)
	if _, _, err := src.Fetch(ctx); err != nil {
		t.Fatal(err)
	}
	src.Invalidate()
	if _, _, err := src.Fetch(ctx); !errors.Is(err, ErrNotModified) {
		t.Errorf("forced refetch of identical content: err = %v, want ErrNotModified", err)
	}
	if _, conditional, _ := countsOf(up); conditional != 0 {
		t.Error("fetch after Invalidate must be unconditional")
	}
}

// TestHTTPSourceRetries5xx: transient upstream failures are retried with
// backoff until a 200 lands.
func TestHTTPSourceRetries5xx(t *testing.T) {
	ctx := context.Background()
	var mu sync.Mutex
	failures := 2
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if failures > 0 {
			failures--
			http.Error(w, "upstream hiccup", http.StatusBadGateway)
			return
		}
		fmt.Fprint(w, oneSetJSON)
	}))
	defer ts.Close()
	list, _, err := fastHTTP(ts.URL).Fetch(ctx)
	if err != nil {
		t.Fatalf("fetch should survive 2 transient 5xx: %v", err)
	}
	if list.NumSets() != 1 {
		t.Errorf("got %d sets", list.NumSets())
	}
}

// TestHTTPSourceGivesUp: a persistently failing upstream exhausts the
// attempt budget and reports the last failure.
func TestHTTPSourceGivesUp(t *testing.T) {
	ctx := context.Background()
	var mu sync.Mutex
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer ts.Close()
	_, _, err := fastHTTP(ts.URL).Fetch(ctx)
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Errorf("err = %v, want give-up after 3 attempts", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if hits != 3 {
		t.Errorf("upstream saw %d attempts, want 3", hits)
	}
}

// TestHTTPSourceNoRetryOn4xx: a client error is permanent — exactly one
// request goes out.
func TestHTTPSourceNoRetryOn4xx(t *testing.T) {
	ctx := context.Background()
	var mu sync.Mutex
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		http.NotFound(w, r)
	}))
	defer ts.Close()
	_, _, err := fastHTTP(ts.URL).Fetch(ctx)
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("err = %v, want a 404 failure", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if hits != 1 {
		t.Errorf("upstream saw %d requests, want 1 (no retry on 4xx)", hits)
	}
}

// TestHTTPSourceBodyLimit: a body over MaxBody fails rather than
// ballooning memory, whether or not Content-Length announces it.
func TestHTTPSourceBodyLimit(t *testing.T) {
	ctx := context.Background()
	big := `{"sets":[` + strings.Repeat(" ", 4096) + `]}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, big)
	}))
	defer ts.Close()
	src := NewHTTPSource(ts.URL, HTTPConfig{MaxBody: 1024, Attempts: 1, Backoff: time.Millisecond})
	_, _, err := src.Fetch(ctx)
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Errorf("err = %v, want a body-limit failure", err)
	}
}

// TestReadBody: a known Content-Length sizes the buffer once instead of
// growing it, and a body that disagrees with its announced length is
// still read up to the limit, so the caller's MaxBody check sees it.
func TestReadBody(t *testing.T) {
	body := strings.Repeat("x", 1<<20)
	read := func(contentLength, limit int64) ([]byte, error) {
		resp := &http.Response{Body: io.NopCloser(strings.NewReader(body)), ContentLength: contentLength}
		return readBody(resp, limit)
	}
	cases := []struct {
		name                 string
		contentLength, limit int64
		want                 int
	}{
		{"announced", 1 << 20, 2 << 20, 1 << 20},
		{"unknown", -1, 2 << 20, 1 << 20},
		{"longer than announced", 100, 2 << 20, 1 << 20},
		{"shorter than announced", 3 << 20, 4 << 20, 1 << 20},
		{"over the limit", 1 << 20, 1000, 1001},
	}
	for _, tc := range cases {
		got, err := read(tc.contentLength, tc.limit)
		if err != nil || len(got) != tc.want {
			t.Errorf("%s: read %d bytes, err %v; want %d", tc.name, len(got), err, tc.want)
		}
	}
	// Growing a 1MB body from bytes.MinRead takes a dozen doublings; a
	// sized buffer skips them. The counts are compared with each other,
	// not with a constant: the race runtime adds allocations to both
	// (4 vs 16 without it, 5–6 vs 31–33 with it).
	sized := testing.AllocsPerRun(5, func() { read(1<<20, 2<<20) })
	grown := testing.AllocsPerRun(5, func() { read(-1, 2<<20) })
	if sized*2 > grown {
		t.Errorf("announced body: %v allocs per read, unknown length: %v; want the announced read to skip the growth", sized, grown)
	}
}

// TestHTTPSourceContextCancel: cancelling mid-fetch returns promptly
// with the context's error instead of burning the retry budget.
func TestHTTPSourceContextCancel(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer close(release)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := fastHTTP(ts.URL).Fetch(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fetch did not return after cancel")
	}
}

// TestBackoffDelay pins the capped-exponential schedule.
func TestBackoffDelay(t *testing.T) {
	base, cap := 100*time.Millisecond, 500*time.Millisecond
	want := []time.Duration{100, 200, 400, 500, 500}
	for retry, w := range want {
		if got := backoffDelay(base, cap, retry); got != w*time.Millisecond {
			t.Errorf("backoffDelay(retry=%d) = %v, want %v", retry, got, w*time.Millisecond)
		}
	}
}

// fakeClock records requested sleeps instead of taking them, and serves
// a fixed now for HTTP-date arithmetic.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	c.sleeps = append(c.sleeps, d)
	c.mu.Unlock()
	return ctx.Err()
}

func (c *fakeClock) recorded() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.sleeps...)
}

// withFakeClock rewires a source's clock so retry schedules can be
// asserted without waiting them out.
func withFakeClock(src *HTTPSource, c *fakeClock) *HTTPSource {
	src.now = c.Now
	src.sleep = c.Sleep
	return src
}

// retryAfterUpstream fails n times with status and a Retry-After header,
// then serves the list.
func retryAfterUpstream(t *testing.T, status int, retryAfter string, failures int) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if failures > 0 {
			failures--
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			http.Error(w, "backing off", status)
			return
		}
		fmt.Fprint(w, oneSetJSON)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestHTTPSourceHonorsRetryAfterSeconds: a 429 naming Retry-After must
// be retried on the server's schedule, not the capped-exponential one.
func TestHTTPSourceHonorsRetryAfterSeconds(t *testing.T) {
	ts := retryAfterUpstream(t, http.StatusTooManyRequests, "7", 2)
	clock := &fakeClock{now: time.Now()}
	src := withFakeClock(NewHTTPSource(ts.URL, HTTPConfig{
		Attempts:   3,
		Backoff:    time.Millisecond,
		BackoffCap: 2 * time.Millisecond,
	}), clock)
	list, _, err := src.Fetch(context.Background())
	if err != nil || list.NumSets() != 1 {
		t.Fatalf("fetch: %v", err)
	}
	want := []time.Duration{7 * time.Second, 7 * time.Second}
	got := clock.recorded()
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("sleeps = %v, want %v (the server's schedule, not backoff)", got, want)
	}
}

// TestHTTPSourceRetryAfterHTTPDate: the HTTP-date form is honoured
// relative to the source's clock.
func TestHTTPSourceRetryAfterHTTPDate(t *testing.T) {
	now := time.Date(2024, 3, 26, 12, 0, 0, 0, time.UTC)
	ts := retryAfterUpstream(t, http.StatusServiceUnavailable, now.Add(9*time.Second).Format(http.TimeFormat), 1)
	clock := &fakeClock{now: now}
	src := withFakeClock(NewHTTPSource(ts.URL, HTTPConfig{
		Attempts: 2,
		Backoff:  time.Millisecond,
	}), clock)
	if _, _, err := src.Fetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := clock.recorded()
	if len(got) != 1 || got[0] != 9*time.Second {
		t.Errorf("sleeps = %v, want [9s]", got)
	}
}

// TestHTTPSourceRetryAfterCapped: a hostile Retry-After cannot pin the
// fetch loop past RetryAfterCap.
func TestHTTPSourceRetryAfterCapped(t *testing.T) {
	ts := retryAfterUpstream(t, http.StatusTooManyRequests, "3600", 1)
	clock := &fakeClock{now: time.Now()}
	src := withFakeClock(NewHTTPSource(ts.URL, HTTPConfig{
		Attempts:      2,
		Backoff:       time.Millisecond,
		RetryAfterCap: 4 * time.Second,
	}), clock)
	if _, _, err := src.Fetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := clock.recorded()
	if len(got) != 1 || got[0] != 4*time.Second {
		t.Errorf("sleeps = %v, want the 4s cap", got)
	}
}

// TestHTTPSourceRetryAfterAbsentFallsBack: without the header (or with a
// malformed one) the capped-exponential schedule still applies — and a
// 502, for which Retry-After is not defined, ignores the header.
func TestHTTPSourceRetryAfterAbsentFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name       string
		status     int
		retryAfter string
	}{
		{"absent", http.StatusTooManyRequests, ""},
		{"malformed", http.StatusServiceUnavailable, "soon"},
		{"undefined-status", http.StatusBadGateway, "7"},
	} {
		ts := retryAfterUpstream(t, tc.status, tc.retryAfter, 2)
		clock := &fakeClock{now: time.Now()}
		src := withFakeClock(NewHTTPSource(ts.URL, HTTPConfig{
			Attempts:   3,
			Backoff:    100 * time.Millisecond,
			BackoffCap: 150 * time.Millisecond,
		}), clock)
		if _, _, err := src.Fetch(context.Background()); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := clock.recorded()
		want := []time.Duration{100 * time.Millisecond, 150 * time.Millisecond}
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("%s: sleeps = %v, want the backoff schedule %v", tc.name, got, want)
		}
	}
}

// TestParseRetryAfter pins the header grammar.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2024, 3, 26, 12, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"0", 0, true},
		{" 12 ", 12 * time.Second, true},
		{"-5", 0, false},
		{"soon", 0, false},
		{now.Add(30 * time.Second).Format(http.TimeFormat), 30 * time.Second, true},
		{now.Add(-30 * time.Second).Format(http.TimeFormat), 0, true}, // past date: retry now
	} {
		got, ok := parseRetryAfter(tc.in, now)
		if got != tc.want || ok != tc.ok {
			t.Errorf("parseRetryAfter(%q) = %v, %v, want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}

// TestHTTPSourceReplicationHeaders: a leader /v1/list export stamps
// X-RWS-* provenance headers; the source captures them into Meta so the
// consumer can detect it is a follower and measure propagation lag, and
// Version() adopts the leader's logical as-of time so version chains
// align across the tier.
func TestHTTPSourceReplicationHeaders(t *testing.T) {
	ctx := context.Background()
	asOf := time.Date(2024, 3, 26, 0, 0, 0, 123456789, time.UTC)
	swapped := asOf.Add(90 * time.Millisecond)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := w.Header()
		h.Set("ETag", `"v1"`)
		h.Set("X-RWS-Version", "feedface1234")
		h.Set("X-RWS-As-Of", asOf.Format(time.RFC3339Nano))
		h.Set("X-RWS-Swapped-At", swapped.Format(time.RFC3339Nano))
		fmt.Fprint(w, oneSetJSON)
	}))
	defer ts.Close()

	_, meta, err := fastHTTP(ts.URL).Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Follows() {
		t.Fatal("Meta.Follows() = false with replication headers present")
	}
	if meta.UpstreamVersion != "feedface1234" {
		t.Errorf("UpstreamVersion = %q", meta.UpstreamVersion)
	}
	if !meta.UpstreamAsOf.Equal(asOf) || !meta.UpstreamSwappedAt.Equal(swapped) {
		t.Errorf("upstream times = %s / %s, want %s / %s",
			meta.UpstreamAsOf, meta.UpstreamSwappedAt, asOf, swapped)
	}
	if v := meta.Version(); !v.AsOf.Equal(asOf) {
		t.Errorf("Version().AsOf = %s, want the leader's as-of %s", v.AsOf, asOf)
	}

	// A plain upstream (no replication headers) is not followed.
	plain := &listServer{body: oneSetJSON, etag: `"v1"`}
	pts := httptest.NewServer(plain)
	defer pts.Close()
	_, meta, err = fastHTTP(pts.URL).Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Follows() {
		t.Errorf("plain upstream reported Follows: %+v", meta)
	}
}
