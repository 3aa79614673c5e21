package crawler

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rwskit/internal/forcepoint"
	"rwskit/internal/sitegen"
)

func testWeb(t *testing.T) (*sitegen.Web, *httptest.Server) {
	t.Helper()
	w := sitegen.NewWeb()
	rng := rand.New(rand.NewSource(1))
	org, err := sitegen.GenerateOrg(rng, sitegen.OrgConfig{
		Name:       "Crawl Test Org",
		Domains:    []string{"alpha.com", "beta.com", "gamma.com"},
		Categories: []forcepoint.Category{forcepoint.NewsAndMedia},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.AddOrg(org)
	srv := httptest.NewServer(w)
	t.Cleanup(srv.Close)
	return w, srv
}

func newTestCrawler(t *testing.T, srv *httptest.Server, workers int) *Crawler {
	t.Helper()
	c, err := NewForServer(srv.URL, srv.Client(), workers)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err != ErrNoClient {
		t.Errorf("err = %v, want ErrNoClient", err)
	}
	if _, err := New(Config{Client: http.DefaultClient}); err != ErrNoBaseURL {
		t.Errorf("err = %v, want ErrNoBaseURL", err)
	}
}

func TestFetch(t *testing.T) {
	_, srv := testWeb(t)
	c := newTestCrawler(t, srv, 2)
	p := c.Fetch(context.Background(), Request{Host: "alpha.com", Path: "/"})
	if !p.OK() {
		t.Fatalf("fetch failed: %+v", p)
	}
	if !strings.Contains(p.Body, "<!DOCTYPE html>") {
		t.Errorf("body = %.60q", p.Body)
	}
	if p.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	if p.URL() != "alpha.com/" {
		t.Errorf("URL = %q", p.URL())
	}
}

func TestFetch404And502(t *testing.T) {
	_, srv := testWeb(t)
	c := newTestCrawler(t, srv, 2)
	p := c.Fetch(context.Background(), Request{Host: "alpha.com", Path: "/nope"})
	if p.Err != nil || p.StatusCode != 404 || p.OK() {
		t.Errorf("404 page: %+v", p)
	}
	p = c.Fetch(context.Background(), Request{Host: "ghost.com", Path: "/"})
	if p.StatusCode != 502 || p.OK() {
		t.Errorf("unknown host: %+v", p)
	}
}

func TestFetchTransportError(t *testing.T) {
	w, srv := testWeb(t)
	w.AddSite(&sitegen.Site{Domain: "dead.com"})
	w.SetFault("dead.com", sitegen.Fault{Hang: true})
	c := newTestCrawler(t, srv, 2)
	p := c.Fetch(context.Background(), Request{Host: "dead.com", Path: "/"})
	if p.Err == nil {
		t.Errorf("expected transport error, got %+v", p)
	}
	if p.OK() {
		t.Error("failed page must not be OK")
	}
}

func TestFetch500(t *testing.T) {
	w, srv := testWeb(t)
	w.SetFault("beta.com", sitegen.Fault{StatusCode: 503})
	c := newTestCrawler(t, srv, 2)
	p := c.Fetch(context.Background(), Request{Host: "beta.com", Path: "/"})
	if p.Err != nil || p.StatusCode != 503 {
		t.Errorf("beta.com: %+v", p)
	}
}

func TestBodyTruncation(t *testing.T) {
	w, srv := testWeb(t)
	w.RegisterRaw("alpha.com", "/big", "text/plain", []byte(strings.Repeat("x", 4096)), nil)
	c, err := New(Config{
		Client:       srv.Client(),
		HostHeader:   true,
		MaxBodyBytes: 1024,
		BaseURL:      func(host, path string) string { return srv.URL + path },
	})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Fetch(context.Background(), Request{Host: "alpha.com", Path: "/big"})
	if !p.Truncated || len(p.Body) != 1024 {
		t.Errorf("truncated=%v len=%d", p.Truncated, len(p.Body))
	}
}

func TestCrawlAllOrderAndCompleteness(t *testing.T) {
	_, srv := testWeb(t)
	c := newTestCrawler(t, srv, 4)
	var reqs []Request
	for _, h := range []string{"alpha.com", "beta.com", "gamma.com"} {
		for _, p := range sitegen.Pages() {
			reqs = append(reqs, Request{Host: h, Path: p})
		}
	}
	pages := c.CrawlAll(context.Background(), reqs)
	if len(pages) != len(reqs) {
		t.Fatalf("pages = %d, want %d", len(pages), len(reqs))
	}
	for i, p := range pages {
		if p == nil {
			t.Fatalf("nil page at %d", i)
		}
		if p.Host != reqs[i].Host || p.Path != reqs[i].Path {
			t.Errorf("result %d out of order: %s%s vs %s%s", i, p.Host, p.Path, reqs[i].Host, reqs[i].Path)
		}
		if !p.OK() {
			t.Errorf("fetch %s%s failed: %v (%d)", p.Host, p.Path, p.Err, p.StatusCode)
		}
	}
}

// TestCrawlAllCancellation: a cancelled crawl still returns one page per
// request. With the context already cancelled, CrawlAll's select may
// hand a request to an idle worker or see the cancellation first; the
// crawl is repeated so both outcomes occur.
func TestCrawlAllCancellation(t *testing.T) {
	_, srv := testWeb(t)
	c := newTestCrawler(t, srv, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := []Request{{Host: "alpha.com", Path: "/"}, {Host: "beta.com", Path: "/"}, {Host: "alpha.com", Path: "/a"}}
	for run := 0; run < 200; run++ {
		pages := c.CrawlAll(ctx, reqs)
		if len(pages) != len(reqs) {
			t.Fatalf("pages = %d", len(pages))
		}
		for i, p := range pages {
			if p == nil {
				t.Fatalf("run %d: nil page %d after cancellation", run, i)
			}
		}
	}
}

// TestPerHostPoliteness verifies at most one in-flight request per host.
func TestPerHostPoliteness(t *testing.T) {
	var inFlight, maxInFlight int32
	var mu sync.Mutex
	h := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		cur := atomic.AddInt32(&inFlight, 1)
		mu.Lock()
		if cur > maxInFlight {
			maxInFlight = cur
		}
		mu.Unlock()
		time.Sleep(10 * time.Millisecond)
		atomic.AddInt32(&inFlight, -1)
		rw.Write([]byte("ok"))
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := NewForServer(srv.URL, srv.Client(), 8)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = Request{Host: "single.com", Path: "/"}
	}
	c.CrawlAll(context.Background(), reqs)
	mu.Lock()
	defer mu.Unlock()
	if maxInFlight != 1 {
		t.Errorf("max in-flight for one host = %d, want 1", maxInFlight)
	}
}

func TestParallelismAcrossHosts(t *testing.T) {
	var inFlight, maxInFlight int32
	var mu sync.Mutex
	h := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		cur := atomic.AddInt32(&inFlight, 1)
		mu.Lock()
		if cur > maxInFlight {
			maxInFlight = cur
		}
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		atomic.AddInt32(&inFlight, -1)
		rw.Write([]byte("ok"))
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := NewForServer(srv.URL, srv.Client(), 8)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Host: string(rune('a'+i)) + ".com", Path: "/"}
	}
	c.CrawlAll(context.Background(), reqs)
	mu.Lock()
	defer mu.Unlock()
	if maxInFlight < 2 {
		t.Errorf("max in-flight across hosts = %d, want >= 2", maxInFlight)
	}
}

func TestTimeout(t *testing.T) {
	h := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		time.Sleep(500 * time.Millisecond)
		rw.Write([]byte("late"))
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := New(Config{
		Client:  srv.Client(),
		Timeout: 50 * time.Millisecond,
		BaseURL: func(host, path string) string { return srv.URL + path },
	})
	if err != nil {
		t.Fatal(err)
	}
	p := c.Fetch(context.Background(), Request{Host: "slow.com", Path: "/"})
	if p.Err == nil {
		t.Error("expected timeout error")
	}
}

func TestCrawlSites(t *testing.T) {
	w, srv := testWeb(t)
	w.AddSite(&sitegen.Site{Domain: "down.com"})
	w.SetFault("down.com", sitegen.Fault{StatusCode: 500})
	c := newTestCrawler(t, srv, 4)
	store, live := c.CrawlSites(context.Background(), []string{"alpha.com", "beta.com", "down.com", "missing.com"}, "/")
	if store.Len() != 4 {
		t.Errorf("store len = %d", store.Len())
	}
	if !live["alpha.com"] || !live["beta.com"] {
		t.Errorf("live map wrong: %v", live)
	}
	if live["down.com"] || live["missing.com"] {
		t.Errorf("down/missing marked live: %v", live)
	}
	if p, ok := store.Get("alpha.com", "/"); !ok || !p.OK() {
		t.Error("alpha.com/ missing from store")
	}
	urls := store.URLs()
	if len(urls) != 4 || urls[0] != "alpha.com/" {
		t.Errorf("URLs = %v", urls)
	}
}

func TestStoreConcurrency(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Put(&Page{Host: "h.com", Path: "/" + string(rune('a'+i))})
				s.Get("h.com", "/a")
				s.Len()
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 16 {
		t.Errorf("Len = %d, want 16", s.Len())
	}
}

func BenchmarkCrawlBatch(b *testing.B) {
	w := sitegen.NewWeb()
	rng := rand.New(rand.NewSource(1))
	sites, _ := sitegen.GenerateTopSites(rng, 16, []forcepoint.Category{forcepoint.Business})
	for _, s := range sites {
		w.AddSite(s)
	}
	srv := httptest.NewServer(w)
	defer srv.Close()
	c, err := NewForServer(srv.URL, srv.Client(), 8)
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]Request, len(sites))
	for i, s := range sites {
		reqs[i] = Request{Host: s.Domain, Path: "/"}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pages := c.CrawlAll(context.Background(), reqs)
		for _, p := range pages {
			if !p.OK() {
				b.Fatalf("fetch failed: %+v", p)
			}
		}
	}
}
