package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rwskit/internal/dataset"
	"rwskit/internal/serve"
)

// --- histogram ---

// percentile reads the p-quantile from an ascending-sorted slice: the
// exact oracle the histogram's quantiles are held to.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// TestHistQuantileMatchesExact records a known sample and holds every
// quantile to within the histogram's design error (2^-6 of the value)
// against the exact sorted answer.
func TestHistQuantileMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h latHist
	var exact []time.Duration
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~ns to ~10s, the range real latencies span.
		d := time.Duration(rng.ExpFloat64() * float64(time.Millisecond))
		h.record(d)
		exact = append(exact, d)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		got := h.quantile(q)
		want := percentile(exact, q)
		if q == 1 {
			want = exact[len(exact)-1]
		}
		// The bucket holds values within 1/64 of each other; allow one
		// rank of slack on top for the differing rank conventions.
		tol := time.Duration(float64(want)/32) + 2*time.Microsecond
		if got < want-tol || got > want+tol {
			t.Errorf("quantile(%g) = %v, exact %v (tol %v)", q, got, want, tol)
		}
	}
	if h.quantile(1) != h.max {
		t.Errorf("p100 = %v, want the observed max %v", h.quantile(1), h.max)
	}
}

// TestHistIndexBounds: every value lands in a bucket whose upper edge
// is within 2^-6 relative error above it, and indexes are monotonic.
func TestHistIndexBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	values := []int64{0, 1, 63, 64, 127, 128, 129, 1 << 20, 1<<62 + 12345}
	for i := 0; i < 5000; i++ {
		values = append(values, rng.Int63())
	}
	for _, v := range values {
		i := histIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", v, i)
		}
		edge := histValue(i)
		if edge < v {
			t.Errorf("histValue(histIndex(%d)) = %d < value", v, edge)
		}
		if v >= 128 && float64(edge) > float64(v)*(1+1.0/32) {
			t.Errorf("bucket edge %d overstates %d by more than the design error", edge, v)
		}
	}
	prev := -1
	for v := int64(0); v < 4096; v++ {
		if i := histIndex(v); i < prev {
			t.Fatalf("histIndex not monotonic at %d", v)
		} else {
			prev = i
		}
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, both latHist
	for i := 1; i <= 100; i++ {
		d := time.Duration(i) * time.Millisecond
		both.record(d)
		if i%2 == 0 {
			a.record(d)
		} else {
			b.record(d)
		}
	}
	a.merge(&b)
	if a.total != both.total || a.max != both.max {
		t.Fatalf("merge: total %d max %v, want %d %v", a.total, a.max, both.total, both.max)
	}
	for _, q := range []float64{0.5, 0.99} {
		if a.quantile(q) != both.quantile(q) {
			t.Errorf("quantile(%g) differs after merge: %v vs %v", q, a.quantile(q), both.quantile(q))
		}
	}
}

// --- flags ---

func TestParseFlagsOpenLoop(t *testing.T) {
	cfg, err := parseFlags([]string{"-target", "http://x", "-rate", "5000", "-arrival", "fixed"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.rate != 5000 || cfg.arrival != "fixed" {
		t.Errorf("parseFlags = %+v", cfg)
	}
	for _, bad := range [][]string{
		{"-target", "http://x", "-arrival", "uniform"},
		{"-target", "http://x", "-rate", "-1"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%v) should fail", bad)
		}
	}
}

// --- fast client ---

// fastTestServer exercises every framing the client must parse: a
// small Content-Length body, a body large enough that net/http switches
// to chunked encoding, an error status, a Connection: close reply, and
// raw replies whose Content-Length the client must refuse.
func fastTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/small", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"ok":true}`))
	})
	mux.HandleFunc("/big", func(w http.ResponseWriter, r *http.Request) {
		big := bytes.Repeat([]byte("x"), 32<<10)
		w.Write(big) // > the 2KB sniff buffer: net/http streams it chunked
	})
	mux.HandleFunc("/missing", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusNotFound)
	})
	mux.HandleFunc("/goaway", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		w.Write([]byte("bye"))
	})
	raw := func(resp string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			conn, buf, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			buf.WriteString(resp)
			buf.Flush()
		}
	}
	// An empty value would frame a 0-byte body and leave "{}" in front
	// of the next response.
	mux.HandleFunc("/cl-empty", raw("HTTP/1.1 200 OK\r\nContent-Length: \r\n\r\n{}"))
	// 2^64: twenty digits, which wrap to 0 in an int64.
	mux.HandleFunc("/cl-overflow", raw("HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551616\r\n\r\n"))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestFastClient(t *testing.T) {
	ts := fastTestServer(t)
	targets, err := parseTargets(ts.URL, "")
	if err != nil {
		t.Fatal(err)
	}
	c := newFastClient(targets[0], 2*time.Second)
	defer c.close()
	// Interleave framings on one connection: the client must leave the
	// stream positioned at the next response every time. A row with
	// status 0 must fail; the client then redials for the next row.
	for i := 0; i < 3; i++ {
		for _, q := range []struct {
			path   string
			status int
		}{
			{"/small", 200}, {"/big", 200}, {"/missing", 404}, {"/small", 200},
			{"/cl-empty", 0}, {"/small", 200}, {"/cl-overflow", 0},
		} {
			status, err := c.get(q.path)
			if q.status == 0 {
				if err == nil {
					t.Fatalf("round %d %s: status %d, want a framing error", i, q.path, status)
				}
				continue
			}
			if err != nil {
				t.Fatalf("round %d %s: %v", i, q.path, err)
			}
			if status != q.status {
				t.Fatalf("round %d %s: status %d, want %d", i, q.path, status, q.status)
			}
		}
	}
	// A Connection: close response drops the socket; the next get must
	// transparently redial.
	if status, err := c.get("/goaway"); err != nil || status != 200 {
		t.Fatalf("/goaway: %d, %v", status, err)
	}
	if c.conn != nil {
		t.Fatal("connection not dropped after Connection: close")
	}
	if status, err := c.get("/small"); err != nil || status != 200 {
		t.Fatalf("redial after close: %d, %v", status, err)
	}

	// The client speaks plain HTTP/1.1 only.
	if _, err := parseTargets("https://example.com", ""); err == nil || !strings.Contains(err.Error(), "plain HTTP/1.1") {
		t.Errorf("parseTargets(https) = %v, want a scheme error", err)
	}
}

// rawServer answers every request on a plain TCP listener with a
// 2-byte 200, after calling hook with the request's 1-based count across
// all connections. It returns the target URL and the request counter.
func rawServer(t *testing.T, hook func(n int32, conn net.Conn)) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var requests atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					if _, err := http.ReadRequest(br); err != nil {
						return
					}
					hook(requests.Add(1), conn)
					if _, err := io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"); err != nil {
						return
					}
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String(), &requests
}

// TestFastClientTimeoutNotRetried: a request that timed out after it was
// written may already be running on the server, so it is reported as an
// error and never resent.
func TestFastClientTimeoutNotRetried(t *testing.T) {
	stall := make(chan struct{})
	url, requests := rawServer(t, func(n int32, _ net.Conn) {
		if n == 2 {
			<-stall // hold request 2 past the client's timeout
		}
	})
	defer close(stall)
	targets, err := parseTargets(url, "")
	if err != nil {
		t.Fatal(err)
	}
	c := newFastClient(targets[0], 200*time.Millisecond)
	defer c.close()
	if status, err := c.get("/one"); err != nil || status != 200 {
		t.Fatalf("first get: %d, %v", status, err)
	}
	if status, err := c.get("/two"); err == nil {
		t.Errorf("stalled get: status %d, want a timeout error", status)
	}
	if n := requests.Load(); n != 2 {
		t.Errorf("server saw %d requests for 2 gets, want 2", n)
	}
}

// TestFastClientRetriesStaleConn: a keep-alive connection the server
// closed while idle is redialed once, and the request reaches the server
// exactly once.
func TestFastClientRetriesStaleConn(t *testing.T) {
	url, requests := rawServer(t, func(n int32, conn net.Conn) {
		if n == 1 {
			// Answer request 1, then close the connection silently.
			io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
			conn.Close()
		}
	})
	targets, err := parseTargets(url, "")
	if err != nil {
		t.Fatal(err)
	}
	c := newFastClient(targets[0], 2*time.Second)
	defer c.close()
	for _, path := range []string{"/one", "/two"} {
		if status, err := c.get(path); err != nil || status != 200 {
			t.Fatalf("get %s: %d, %v", path, status, err)
		}
	}
	if n := requests.Load(); n != 2 {
		t.Errorf("server saw %d requests for 2 gets, want 2", n)
	}
}

func TestParseHex(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true}, {"a", 10, true}, {"FF", 255, true}, {"1f4", 500, true},
		{"", 0, false}, {"g1", 0, false}, {"12345678901234567", 0, false},
	} {
		got, err := parseHex([]byte(tc.in))
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("parseHex(%q) = %d, %v", tc.in, got, err)
		}
	}
}

// --- open loop against a live server ---

func liveTarget(t *testing.T) *httptest.Server {
	t.Helper()
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(list))
	t.Cleanup(ts.Close)
	return ts
}

// TestOpenLoopRun drives -rate against a live server: the report must
// carry the open-loop fields, hit roughly the offered request count,
// and keep its percentiles ordered.
func TestOpenLoopRun(t *testing.T) {
	ts := liveTarget(t)
	for _, arrival := range []string{"poisson", "fixed"} {
		var out bytes.Buffer
		err := run(context.Background(), []string{
			"-target", ts.URL, "-workers", "2", "-duration", "400ms",
			"-rate", "500", "-arrival", arrival, "-json",
		}, &out)
		if err != nil {
			t.Fatalf("%s: run: %v (output %q)", arrival, err, out.String())
		}
		var rep Report
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Mode != "open" || rep.Arrival != arrival || rep.OfferedRate != 500 {
			t.Errorf("%s: open-loop fields missing: %+v", arrival, rep)
		}
		if rep.Errors != 0 {
			t.Errorf("%s: %d errors against a healthy server", arrival, rep.Errors)
		}
		// 500 req/s over 400ms is ~200 requests. The schedule, not worker
		// count, sets the pace — accept a generous band for CI jitter.
		if rep.Requests < 100 || rep.Requests > 320 {
			t.Errorf("%s: %d requests at 500 req/s over 400ms, want ~200", arrival, rep.Requests)
		}
		if rep.P50Micros > rep.P90Micros || rep.P90Micros > rep.P99Micros ||
			rep.P99Micros > rep.P999Micros || rep.P999Micros > rep.MaxMicros {
			t.Errorf("%s: percentiles out of order: %+v", arrival, rep)
		}
	}
}

// TestTargetBasePath: a target URL's path is the base every request
// path is appended to, so a node mounted under a prefix answers.
func TestTargetBasePath(t *testing.T) {
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.StripPrefix("/prefix", serve.New(list)))
	defer ts.Close()
	var out bytes.Buffer
	err = run(context.Background(), []string{
		"-target", ts.URL + "/prefix", "-workers", "1", "-duration", "200ms", "-json",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v (output %q)", err, out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Errors != 0 {
		t.Errorf("prefixed target: %+v", rep)
	}
}

// TestMultiTargetRun drives an open loop over two weighted live targets
// with 100-pair batches: the report carries a per-target block whose
// counts sum to the aggregate and follow the 2:1 weights.
func TestMultiTargetRun(t *testing.T) {
	a, b := liveTarget(t), liveTarget(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-targets", a.URL + "=2," + b.URL, "-workers", "2", "-duration", "300ms",
		"-rate", "400", "-json", "-batch", "100",
		"-mix", "sameset=2,set=2,partition=1,batch=1",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v (output %q)", err, out.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.Errors != 0 || len(rep.Targets) != 2 {
		t.Fatalf("multi-target run: %+v", rep)
	}
	first, second := rep.Targets[0], rep.Targets[1]
	if first.Target != a.URL || first.Weight != 2 || second.Target != b.URL || second.Weight != 1 {
		t.Errorf("targets = %+v", rep.Targets)
	}
	if first.Requests+second.Requests != rep.Requests {
		t.Errorf("target counts %d+%d, want %d", first.Requests, second.Requests, rep.Requests)
	}
	// Each worker walks the ring [a a b] by counter, so per worker the
	// split is exact to within one request.
	if d := int64(first.Requests) - 2*int64(second.Requests); d < -4 || d > 4 {
		t.Errorf("split %d:%d does not follow the 2:1 weights", first.Requests, second.Requests)
	}
}
