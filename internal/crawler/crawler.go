// Package crawler implements the concurrent HTTP crawler used to fetch set
// members' pages for the HTML-similarity analysis (Figure 4 of "A First
// Look at Related Website Sets", IMC 2024) and for the liveness checks the
// paper's survey-site filtering performed.
//
// The paper crawled live sites with a headless browser (chromedp); this
// reproduction crawls the synthetic web in rwskit/internal/sitegen over
// real HTTP. The crawler is a bounded worker pool with per-host politeness
// (at most one in-flight request per host), per-request timeouts, bounded
// body sizes, and structured per-page results — the shape a production
// measurement crawler needs, independent of the target web being synthetic.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Page is the result of fetching one URL.
type Page struct {
	// Host and Path identify the request ("example.com", "/about").
	Host string
	Path string
	// StatusCode is the HTTP status, 0 if the request failed before a
	// response.
	StatusCode int
	// Body is the response body (possibly truncated to MaxBodyBytes).
	Body string
	// Truncated reports whether Body was cut at MaxBodyBytes.
	Truncated bool
	// Header is the response header (nil on transport failure).
	Header http.Header
	// Err is the transport-level error, if any.
	Err error
	// Elapsed is the request duration.
	Elapsed time.Duration
}

// OK reports whether the fetch returned HTTP 200.
func (p *Page) OK() bool { return p.Err == nil && p.StatusCode == http.StatusOK }

// URL reconstructs the request URL (scheme-less host + path).
func (p *Page) URL() string { return p.Host + p.Path }

// Config configures a Crawler.
type Config struct {
	// Client issues the requests. Required: tests inject an
	// httptest-backed client; production use would install a real one.
	Client *http.Client
	// BaseURL maps a (host, path) pair to a request URL. Required. The
	// synthetic web is served on one listener and routed by Host header,
	// so the default mapping used by NewForServer points every request at
	// that listener with the target host in the Host field.
	BaseURL func(host, path string) string
	// HostHeader, if true, sets the request Host header to the target
	// host (required for the Host-routed synthetic web).
	HostHeader bool
	// Workers is the number of concurrent fetchers (default 8).
	Workers int
	// Timeout bounds each request (default 10s).
	Timeout time.Duration
	// MaxBodyBytes bounds each body read (default 1 MiB).
	MaxBodyBytes int64
	// UserAgent is sent with each request.
	UserAgent string
}

// Crawler fetches batches of pages with a bounded worker pool and per-host
// serialisation.
type Crawler struct {
	cfg Config
	// hostLocks serialises requests per host (politeness).
	hostLocks sync.Map // host -> *sync.Mutex
}

// ErrNoClient is returned by New when no HTTP client is supplied.
var ErrNoClient = errors.New("crawler: Config.Client is required")

// ErrNoBaseURL is returned by New when no URL mapping is supplied.
var ErrNoBaseURL = errors.New("crawler: Config.BaseURL is required")

// New validates cfg and returns a Crawler.
func New(cfg Config) (*Crawler, error) {
	if cfg.Client == nil {
		return nil, ErrNoClient
	}
	if cfg.BaseURL == nil {
		return nil, ErrNoBaseURL
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.UserAgent == "" {
		cfg.UserAgent = "rwskit-crawler/1.0 (research reproduction)"
	}
	return &Crawler{cfg: cfg}, nil
}

// NewForServer returns a Crawler that sends every request to serverURL
// (an httptest.Server URL serving a Host-routed sitegen.Web), with the
// target host carried in the Host header.
func NewForServer(serverURL string, client *http.Client, workers int) (*Crawler, error) {
	return New(Config{
		Client:     client,
		Workers:    workers,
		HostHeader: true,
		BaseURL: func(host, path string) string {
			return serverURL + path
		},
	})
}

// Request names one page to fetch.
type Request struct {
	Host string
	Path string
}

// Fetch retrieves a single page.
func (c *Crawler) Fetch(ctx context.Context, req Request) *Page {
	page := &Page{Host: req.Host, Path: req.Path}
	mu := c.lockFor(req.Host)
	mu.Lock()
	defer mu.Unlock()

	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()

	start := time.Now()
	url := c.cfg.BaseURL(req.Host, req.Path)
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		page.Err = fmt.Errorf("crawler: building request for %s%s: %w", req.Host, req.Path, err)
		return page
	}
	if c.cfg.HostHeader {
		httpReq.Host = req.Host
	}
	httpReq.Header.Set("User-Agent", c.cfg.UserAgent)
	resp, err := c.cfg.Client.Do(httpReq)
	page.Elapsed = time.Since(start)
	if err != nil {
		page.Err = fmt.Errorf("crawler: fetching %s%s: %w", req.Host, req.Path, err)
		return page
	}
	defer resp.Body.Close()
	page.StatusCode = resp.StatusCode
	page.Header = resp.Header
	body, err := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes+1))
	if err != nil {
		page.Err = fmt.Errorf("crawler: reading %s%s: %w", req.Host, req.Path, err)
		return page
	}
	if int64(len(body)) > c.cfg.MaxBodyBytes {
		body = body[:c.cfg.MaxBodyBytes]
		page.Truncated = true
	}
	page.Body = string(body)
	return page
}

func (c *Crawler) lockFor(host string) *sync.Mutex {
	v, _ := c.hostLocks.LoadOrStore(strings.ToLower(host), &sync.Mutex{})
	return v.(*sync.Mutex)
}

// CrawlAll fetches every request using the worker pool and returns results
// in the same order as reqs. The context cancels outstanding work.
func (c *Crawler) CrawlAll(ctx context.Context, reqs []Request) []*Page {
	results := make([]*Page, len(reqs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < c.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				results[idx] = c.Fetch(ctx, reqs[idx])
			}
		}()
	}
	// Once the context is done, every request not yet handed to a
	// worker is marked cancelled; the select may still hand one over if
	// a worker is idle at that moment, and Fetch then reports the error.
	for i := range reqs {
		if ctx.Err() == nil {
			select {
			case jobs <- i:
				continue
			case <-ctx.Done():
			}
		}
		results[i] = &Page{Host: reqs[i].Host, Path: reqs[i].Path, Err: ctx.Err()}
	}
	close(jobs)
	wg.Wait()
	return results
}

// Store is an in-memory page store keyed by host and path, safe for
// concurrent use.
type Store struct {
	mu    sync.RWMutex
	pages map[string]*Page // key: host+path
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{pages: make(map[string]*Page)} }

// Put stores a page, replacing any previous fetch of the same URL.
func (s *Store) Put(p *Page) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pages[p.URL()] = p
}

// Get retrieves a stored page.
func (s *Store) Get(host, path string) (*Page, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.pages[host+path]
	return p, ok
}

// Len returns the number of stored pages.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.pages)
}

// URLs returns the stored URLs in sorted order.
func (s *Store) URLs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.pages))
	for u := range s.pages {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// CrawlSites fetches the home page of every host into a Store and reports
// per-host success. It is the liveness-check primitive the paper's survey
// preparation used ("manual filtering was performed to check that the
// websites ... were live").
func (c *Crawler) CrawlSites(ctx context.Context, hosts []string, path string) (*Store, map[string]bool) {
	reqs := make([]Request, len(hosts))
	for i, h := range hosts {
		reqs[i] = Request{Host: h, Path: path}
	}
	pages := c.CrawlAll(ctx, reqs)
	store := NewStore()
	live := make(map[string]bool, len(hosts))
	for _, p := range pages {
		if p == nil {
			continue
		}
		store.Put(p)
		live[p.Host] = p.OK()
	}
	return store, live
}
