package source

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"rwskit/internal/core"
)

// HTTPConfig tunes an HTTPSource. The zero value selects production
// defaults; tests shrink the backoff to keep retries fast.
type HTTPConfig struct {
	// Client issues the requests. Defaults to a dedicated client with a
	// 30s request timeout and keep-alive transport.
	Client *http.Client
	// MaxBody bounds the response body; a larger body fails the fetch
	// rather than ballooning memory. Defaults to 64 MiB (the live RWS
	// list is well under 1 MiB).
	MaxBody int64
	// Attempts is how many times a retryable failure (transport error,
	// 5xx, 429) is tried before Fetch gives up. Defaults to 3.
	Attempts int
	// Backoff is the first retry delay; it doubles per attempt up to
	// BackoffCap. Defaults to 500ms capped at 5s.
	Backoff    time.Duration
	BackoffCap time.Duration
	// RetryAfterCap bounds how long a Retry-After header on a 429/503 is
	// honoured for: the server-requested delay replaces the exponential
	// schedule up to this cap, so a hostile or misconfigured upstream
	// cannot pin a Fetch (and the watcher goroutine behind it) for an
	// hour. Defaults to 30s.
	RetryAfterCap time.Duration
}

func (c HTTPConfig) withDefaults() HTTPConfig {
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 64 << 20
	}
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.Backoff <= 0 {
		c.Backoff = 500 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 5 * time.Second
	}
	if c.RetryAfterCap <= 0 {
		c.RetryAfterCap = 30 * time.Second
	}
	return c
}

// HTTPSource follows a list published at an HTTP(S) URL — the upstream
// related_website_sets.JSON — using conditional requests: after the
// first 200, every poll carries If-None-Match (the stored ETag) and
// If-Modified-Since (the stored Last-Modified), so an unchanged upstream
// answers 304 with no body and Fetch reports ErrNotModified. Retryable
// failures (transport errors, 5xx, 429) are retried with capped
// exponential backoff; 4xx responses and oversized bodies fail
// immediately. The content-hash gate backstops servers that emit fresh
// validators for byte-identical content. Each body is parsed against the
// last one parsed (core.ParseJSONFrom): a set whose bytes have that
// revision's span digest is taken without being decoded, consecutive
// revisions share every unchanged set, and Revision.Hash frames only the
// sets that changed.
type HTTPSource struct {
	url string
	cfg HTTPConfig

	// now and sleep are the clock; tests substitute them so the
	// Retry-After and backoff schedules can be asserted without waiting
	// them out.
	now   func() time.Time
	sleep func(context.Context, time.Duration) error

	mu           sync.Mutex
	etag         string         // guarded by mu
	lastModified string         // guarded by mu
	hash         string         // guarded by mu
	last         *core.Revision // guarded by mu; its list hashes to hash
}

// NewHTTPSource returns an HTTPSource polling url. No request is issued
// until the first Fetch.
func NewHTTPSource(url string, cfg HTTPConfig) *HTTPSource {
	return &HTTPSource{url: url, cfg: cfg.withDefaults(), now: time.Now, sleep: sleepCtx}
}

// Location implements Source.
func (h *HTTPSource) Location() string { return h.url }

// Invalidate implements Source: the stored validators are dropped, so
// the next Fetch is an unconditional GET.
func (h *HTTPSource) Invalidate() {
	h.mu.Lock()
	h.etag, h.lastModified = "", ""
	h.mu.Unlock()
}

// retryableError marks a failure worth another attempt. retryAfter
// carries the server-requested delay when the response named one
// (Retry-After on a 429/503).
type retryableError struct {
	err           error
	retryAfter    time.Duration
	hasRetryAfter bool
}

func (e retryableError) Error() string { return e.err.Error() }
func (e retryableError) Unwrap() error { return e.err }

// Fetch implements Source. Retry delays follow the capped-exponential
// schedule, except that a 429/503 carrying a Retry-After header is
// retried when the server asked (bounded by RetryAfterCap) — hammering
// an upstream that said "back off for 7s" at the 500ms schedule is how
// pollers get banned.
func (h *HTTPSource) Fetch(ctx context.Context) (*core.List, Meta, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var lastErr error
	var delay time.Duration
	for attempt := 0; attempt < h.cfg.Attempts; attempt++ {
		if attempt > 0 {
			if err := h.sleep(ctx, delay); err != nil {
				return nil, Meta{}, err
			}
		}
		list, meta, err := h.fetchOnce(ctx)
		if err == nil {
			return list, meta, nil
		}
		re, retry := err.(retryableError)
		if !retry || ctx.Err() != nil {
			return nil, Meta{}, err
		}
		if re.hasRetryAfter {
			delay = min(re.retryAfter, h.cfg.RetryAfterCap)
		} else {
			delay = backoffDelay(h.cfg.Backoff, h.cfg.BackoffCap, attempt)
		}
		lastErr = err
	}
	return nil, Meta{}, fmt.Errorf("source: %s: giving up after %d attempts: %w", h.url, h.cfg.Attempts, lastErr)
}

// fetchOnce performs a single conditional GET. Callers hold h.mu.
//
//rws:locked mu
func (h *HTTPSource) fetchOnce(ctx context.Context) (*core.List, Meta, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.url, nil)
	if err != nil {
		return nil, Meta{}, err
	}
	req.Header.Set("Accept", "application/json")
	if h.etag != "" {
		req.Header.Set("If-None-Match", h.etag)
	}
	if h.lastModified != "" {
		req.Header.Set("If-Modified-Since", h.lastModified)
	}
	resp, err := h.cfg.Client.Do(req)
	if err != nil {
		// A cancelled context is terminal, everything else at the
		// transport layer is worth a retry.
		if ctx.Err() != nil {
			return nil, Meta{}, ctx.Err()
		}
		return nil, Meta{}, retryableError{err: err}
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()

	switch {
	case resp.StatusCode == http.StatusNotModified:
		return nil, Meta{}, ErrNotModified
	case resp.StatusCode == http.StatusOK:
		// Fall through to the body read below.
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests:
		re := retryableError{err: fmt.Errorf("source: %s: upstream returned %s", h.url, resp.Status)}
		// 429 and 503 are the statuses Retry-After is defined for; an
		// upstream that names its own recovery time knows better than our
		// exponential guess.
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			re.retryAfter, re.hasRetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), h.now())
		}
		return nil, Meta{}, re
	default:
		return nil, Meta{}, fmt.Errorf("source: %s: upstream returned %s", h.url, resp.Status)
	}

	if resp.ContentLength > h.cfg.MaxBody {
		return nil, Meta{}, fmt.Errorf("source: %s: body of %d bytes exceeds limit %d", h.url, resp.ContentLength, h.cfg.MaxBody)
	}
	data, err := readBody(resp, h.cfg.MaxBody)
	if err != nil {
		if ctx.Err() != nil {
			return nil, Meta{}, ctx.Err()
		}
		return nil, Meta{}, retryableError{err: fmt.Errorf("source: %s: reading body: %w", h.url, err)}
	}
	if int64(len(data)) > h.cfg.MaxBody {
		return nil, Meta{}, fmt.Errorf("source: %s: body exceeds limit %d bytes", h.url, h.cfg.MaxBody)
	}
	rev, err := core.ParseJSONFrom(data, h.last)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("source: %s: %w", h.url, err)
	}
	h.etag = resp.Header.Get("ETag")
	h.lastModified = resp.Header.Get("Last-Modified")
	list := rev.List()
	// A re-serialized body shares every set with the last revision; it
	// still becomes the parse base, so the next body's unchanged sets
	// match the bytes the upstream now serves.
	hash := rev.Hash()
	h.last = rev
	if hash == h.hash {
		return nil, Meta{}, ErrNotModified
	}
	h.hash = hash
	meta := Meta{
		Location:     h.url,
		Hash:         hash,
		FetchedAt:    h.now(),
		ETag:         h.etag,
		LastModified: h.lastModified,
	}
	// An rws-serve leader stamps replication headers on its /v1/list
	// export; capturing them here is what lets the consumer detect it is
	// a follower (Meta.Follows) and measure swap-propagation lag.
	if v := resp.Header.Get("X-RWS-Version"); v != "" {
		meta.UpstreamVersion = v
		if t, err := time.Parse(time.RFC3339Nano, resp.Header.Get("X-RWS-As-Of")); err == nil {
			meta.UpstreamAsOf = t
		}
		if t, err := time.Parse(time.RFC3339Nano, resp.Header.Get("X-RWS-Swapped-At")); err == nil {
			meta.UpstreamSwappedAt = t
		}
	}
	return list, meta, nil
}

// readBody reads at most maxBody+1 bytes of resp's body, so the caller
// can tell an oversized body from one that fits. A known Content-Length
// (already checked against maxBody) sizes the buffer once, rather than
// growing it from 512 bytes and copying a multi-megabyte list twice over.
func readBody(resp *http.Response, maxBody int64) ([]byte, error) {
	var buf bytes.Buffer
	if resp.ContentLength >= 0 {
		// ReadFrom wants bytes.MinRead free before each read, including
		// the one that sees EOF.
		buf.Grow(int(resp.ContentLength) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(io.LimitReader(resp.Body, maxBody+1))
	return buf.Bytes(), err
}

// parseRetryAfter parses a Retry-After header value: delta-seconds or an
// HTTP-date (relative to now). A missing, malformed, or negative value
// reports false and the caller falls back to the exponential schedule.
func parseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// backoffDelay is the capped exponential retry delay before attempt
// retry+1 (retry counts completed failed attempts, starting at 0).
func backoffDelay(base, cap time.Duration, retry int) time.Duration {
	d := base
	for i := 0; i < retry && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	return d
}

// sleepCtx sleeps for d unless ctx is cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
