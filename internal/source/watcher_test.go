// Watcher tests live in an external test package so they can drive a
// real serve.Server (serve imports source; an internal test importing
// serve back would cycle).
package source_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rwskit/internal/core"
	"rwskit/internal/serve"
	"rwskit/internal/source"
)

const oneSetJSON = `{"sets":[{"primary":"https://a.com","associatedSites":["https://b.com"]}]}`
const twoSetJSON = `{"sets":[
  {"primary":"https://a.com","associatedSites":["https://b.com"]},
  {"primary":"https://c.com","associatedSites":["https://d.com"]}
]}`

// TestWatcherDeliversFileSwaps: ticker-driven polling of a FileSource
// delivers exactly the real changes, each with the list it replaces.
func TestWatcherDeliversFileSwaps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "list.json")
	if err := os.WriteFile(path, []byte(oneSetJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	src := source.NewFileSource(path)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	initial, _, err := src.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	w := source.NewWatcher(src, 5*time.Millisecond, initial, nil)
	swaps := make(chan source.Swap, 16)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx, func(sw source.Swap) { swaps <- sw })
	}()

	// Publish a change under a future mtime so the stat gate opens.
	if err := os.WriteFile(path, []byte(twoSetJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}

	select {
	case sw := <-swaps:
		if sw.List.NumSets() != 2 {
			t.Errorf("swap = %d sets, want 2", sw.List.NumSets())
		}
		if got := core.DiffLists(initial, sw.List).Summary(); got != "+sets 1 (c.com)" {
			t.Errorf("diff summary = %q", got)
		}
		if sw.Meta.Hash != sw.List.Hash() {
			t.Errorf("Meta.Hash = %.12s, list hashes to %.12s", sw.Meta.Hash, sw.List.Hash())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watcher never delivered the change")
	}

	// No further changes: the watcher must stay silent.
	select {
	case sw := <-swaps:
		t.Errorf("unexpected extra swap: %d sets", sw.List.NumSets())
	case <-time.After(50 * time.Millisecond):
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

// TestWatcherRefresh: with no ticker, only Refresh triggers fetches —
// and a refresh of identical content delivers nothing (hash gate).
func TestWatcherRefresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "list.json")
	os.WriteFile(path, []byte(oneSetJSON), 0o644)
	src := source.NewFileSource(path)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	initial, _, err := src.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	w := source.NewWatcher(src, 0, initial, nil)
	swaps := make(chan source.Swap, 16)
	go w.Run(ctx, func(sw source.Swap) { swaps <- sw })

	w.Refresh() // identical content: no delivery
	select {
	case sw := <-swaps:
		t.Errorf("refresh of identical content delivered a swap: %d sets", sw.List.NumSets())
	case <-time.After(100 * time.Millisecond):
	}

	// Rewrite the content; Refresh must force the re-read even though the
	// mtime may be within the same granule as the recorded one.
	if err := os.WriteFile(path, []byte(twoSetJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	w.Refresh()
	select {
	case sw := <-swaps:
		// The watcher has no ticker: only Refresh can have fetched this.
		if sw.List.NumSets() != 2 {
			t.Errorf("swap = %d sets, want 2", sw.List.NumSets())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("refresh never delivered the change")
	}
}

// TestWatcherLogsFetchFailures: a failing poll keeps the current list
// and reports through logf instead of delivering.
func TestWatcherLogsFetchFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "list.json")
	os.WriteFile(path, []byte(oneSetJSON), 0o644)
	src := source.NewFileSource(path)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	initial, _, err := src.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	w := source.NewWatcher(src, 0, initial, func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	swaps := make(chan source.Swap, 16)
	go w.Run(ctx, func(sw source.Swap) { swaps <- sw })

	os.WriteFile(path, []byte("not json"), 0o644)
	w.Refresh()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(lines)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("failed poll was never logged")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	line := lines[0]
	mu.Unlock()
	if !strings.Contains(line, "keeping current list") {
		t.Errorf("log line = %q", line)
	}
	select {
	case sw := <-swaps:
		t.Errorf("broken list delivered a swap: %d sets", sw.List.NumSets())
	default:
	}
}

// TestWatcherLogsClientTimeouts: an http.Client timeout error satisfies
// errors.Is(err, context.DeadlineExceeded), but it means the upstream is
// stale, not that the watcher is shutting down — it must be logged, not
// swallowed.
func TestWatcherLogsClientTimeouts(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer ts.Close()
	defer close(release)

	src := source.NewHTTPSource(ts.URL, source.HTTPConfig{
		Client:   &http.Client{Timeout: 20 * time.Millisecond},
		Attempts: 1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var lines []string
	w := source.NewWatcher(src, 0, nil, func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	go w.Run(ctx, func(source.Swap) {})
	w.Refresh()

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(lines)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client-timeout poll failure was never logged")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(lines[0], "keeping current list") {
		t.Errorf("log line = %q", lines[0])
	}
}

// TestWatcherSwapsUnderConcurrentQueries is the race test: a Watcher
// hot-swaps a serve.Server's snapshot (through the same SwapDeliver hook
// rws-serve wires) while query traffic hammers the HTTP endpoints. Run
// with -race; every response must be coherent with one snapshot or the
// other, and the final state must be the last published list.
func TestWatcherSwapsUnderConcurrentQueries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "list.json")
	if err := os.WriteFile(path, []byte(oneSetJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	src := source.NewFileSource(path)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	initial, _, err := src.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(initial)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	w := source.NewWatcher(src, 0, initial, nil)
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		w.Run(ctx, srv.SwapDeliver(io.Discard))
	}()

	// Flip the published list as fast as the watcher will take it.
	const flips = 40
	flipDone := make(chan error, 1)
	go func() {
		for i := 0; i < flips; i++ {
			body := oneSetJSON
			if i%2 == 0 {
				body = twoSetJSON
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				flipDone <- err
				return
			}
			w.Refresh()
			time.Sleep(2 * time.Millisecond)
		}
		// Land on the two-set list so the final state is deterministic.
		if err := os.WriteFile(path, []byte(twoSetJSON), 0o644); err != nil {
			flipDone <- err
			return
		}
		w.Refresh()
		flipDone <- nil
	}()

	// Query traffic from several goroutines while the swaps land.
	var qwg sync.WaitGroup
	client := ts.Client()
	for g := 0; g < 4; g++ {
		qwg.Add(1)
		go func() {
			defer qwg.Done()
			for i := 0; i < 150; i++ {
				resp, err := client.Get(ts.URL + "/v1/sameset?a=a.com&b=b.com")
				if err != nil {
					t.Error(err)
					return
				}
				var body serve.SameSetResponse
				if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
					t.Error(err)
					resp.Body.Close()
					return
				}
				resp.Body.Close()
				// a.com/b.com are related in BOTH revisions: any coherent
				// snapshot answers true with primary a.com.
				if resp.StatusCode != http.StatusOK || !body.SameSet || body.Primary != "a.com" {
					t.Errorf("mid-swap response: status=%d body=%+v", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	qwg.Wait()
	if err := <-flipDone; err != nil {
		t.Fatal(err)
	}

	// The last published revision must win.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Snapshot().NumSets() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("final snapshot has %d sets, want 2", srv.Snapshot().NumSets())
		}
		time.Sleep(5 * time.Millisecond)
	}

	cancel()
	select {
	case <-watcherDone:
	case <-time.After(5 * time.Second):
		t.Fatal("watcher did not stop")
	}
}

// TestWatcherRunExitsOnCancelMidFetch: cancelling the watcher context
// while a fetch is blocked on a slow upstream must abort the request
// and return from Run without leaking a goroutine. The goroleak
// analyzer proves Run's goroutine observes its context; this is the
// end-to-end counterpart, counting real goroutines across a shutdown
// that lands mid-fetch.
func TestWatcherRunExitsOnCancelMidFetch(t *testing.T) {
	fetchStarted := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case fetchStarted <- struct{}{}:
		default:
		}
		// Hold the response until the client gives up: the abort must
		// come from the watcher's context, not from the server side.
		<-r.Context().Done()
	}))
	defer ts.Close()

	client := &http.Client{}
	src := source.NewHTTPSource(ts.URL, source.HTTPConfig{Client: client, Attempts: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	base := runtime.NumGoroutine()
	w := source.NewWatcher(src, 0, nil, func(string, ...any) {})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx, func(source.Swap) {})
	}()
	w.Refresh()

	select {
	case <-fetchStarted:
	case <-time.After(10 * time.Second):
		t.Fatal("fetch never reached the test server")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel mid-fetch")
	}

	// Every goroutine the watcher (and its aborted fetch) started must
	// wind down; the transport's read/write loops take a moment to
	// notice the closed connection, so poll with a deadline.
	client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine count stuck at %d, want <= %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWatcherOnPoll: the OnPoll hook observes every completed poll in
// order — nil for a delivered swap, ErrNotModified for an unchanged
// source, the fetch error for a failure — which is what a follower's
// replication metrics hang off.
func TestWatcherOnPoll(t *testing.T) {
	path := filepath.Join(t.TempDir(), "list.json")
	if err := os.WriteFile(path, []byte(oneSetJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	src := source.NewFileSource(path)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var mu sync.Mutex
	var swaps, notModified, failures int
	w := source.NewWatcher(src, 2*time.Millisecond, nil, nil)
	w.OnPoll = func(err error) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil:
			swaps++
		case errors.Is(err, source.ErrNotModified):
			notModified++
		default:
			failures++
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx, func(source.Swap) {})
	}()

	counts := func() (int, int, int) {
		mu.Lock()
		defer mu.Unlock()
		return swaps, notModified, failures
	}
	wait := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatal("timed out waiting for " + what)
	}

	// First poll delivers (initial was nil), then the unchanged file turns
	// every tick into a not-modified.
	wait(func() bool { s, nm, _ := counts(); return s >= 1 && nm >= 3 },
		"a delivered swap followed by not-modified polls")

	// A vanished file turns polls into failures.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	wait(func() bool { _, _, f := counts(); return f >= 2 }, "poll failures after removal")

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
}

// TestWatcherIgnoresEmptyBodies: an upstream serving a body with no
// "sets" array (null, {}, {"sets":null}) is broken, not empty. The fetch
// fails, and the watcher keeps the list it has instead of swapping to
// one where nothing is related.
func TestWatcherIgnoresEmptyBodies(t *testing.T) {
	var mu sync.Mutex
	body := oneSetJSON
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprint(w, body)
	}))
	defer ts.Close()
	serveBody := func(b string) {
		mu.Lock()
		body = b
		mu.Unlock()
	}
	src := source.NewHTTPSource(ts.URL, source.HTTPConfig{Attempts: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	initial, _, err := src.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}

	polls := make(chan error, 16)
	w := source.NewWatcher(src, 0, initial, nil)
	w.OnPoll = func(err error) { polls <- err }
	swaps := make(chan source.Swap, 16)
	go w.Run(ctx, func(sw source.Swap) { swaps <- sw })

	for _, b := range []string{"null", "{}", `{"sets":null}`, " null \n"} {
		serveBody(b)
		if _, _, err := src.Fetch(ctx); err == nil {
			t.Errorf("Fetch of %q succeeded, want an error", b)
		}
		w.Refresh()
		select {
		case err := <-polls:
			if err == nil || errors.Is(err, source.ErrNotModified) {
				t.Errorf("poll of %q: err = %v, want a parse failure", b, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("poll of %q never finished", b)
		}
		select {
		case sw := <-swaps:
			t.Fatalf("body %q delivered a swap with %d sets", b, sw.List.NumSets())
		default:
		}
	}

	// An explicitly empty array is a real (if unusual) list.
	serveBody(`{"sets":[]}`)
	w.Refresh()
	select {
	case sw := <-swaps:
		if sw.List.NumSets() != 0 {
			t.Errorf("empty list swap: %d sets, want 0", sw.List.NumSets())
		}
	case <-time.After(10 * time.Second):
		t.Fatal(`{"sets":[]} was never delivered`)
	}
}
