package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"

	"rwskit/internal/core"
	"rwskit/internal/serve"
	"rwskit/internal/source"
)

// tracer records spans at the boundaries the harness calls: the server's
// ServeHTTP (through a wrapping handler), the source's Fetch, and the
// watcher's deliver func around SwapDeliver. Client spans are the load
// records themselves. A request's client and server spans share its
// X-Trace-Id; a swap's fetch, deliver and visibility share the swap's ID.
// Spans are kept in memory and written out when the run ends.
type tracer struct {
	b *bench

	server  []span // preallocated; filled through nServer
	nServer atomic.Int64

	swapID atomic.Int64 // the swap in flight, 0 between swaps
	// on enables request spans; off, the wrapper only forwards.
	on atomic.Bool

	mu       sync.Mutex
	fetches  []fetchSpan   // guarded by mu
	delivers []deliverSpan // guarded by mu
	builds   []int64       // guarded by mu; BuildInfo().BuildNanos of every snapshot built
}

type span struct{ id, start, end int64 }

type fetchSpan struct {
	swap, start, end int64
	changed          bool // the fetch returned a new list
}

type deliverSpan struct {
	swap, start, end, build int64
}

// serverSpanCap bounds the server spans one traced run keeps.
const serverSpanCap = 1 << 20

func newTracer(b *bench) *tracer {
	return &tracer{b: b, server: make([]span, serverSpanCap)}
}

// handler wraps the server so every request's ServeHTTP interval is
// recorded under the client's X-Trace-Id.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.b.now()
		h.ServeHTTP(w, r)
		end := t.b.now()
		v := r.Header["X-Trace-Id"]
		if len(v) == 0 {
			return
		}
		id, err := strconv.ParseInt(v[0], 10, 64)
		if err != nil {
			return
		}
		if i := t.nServer.Add(1) - 1; i < int64(len(t.server)) {
			t.server[i] = span{id: id, start: start, end: end}
		}
	})
}

// tracedSource times every Fetch of the wrapped source.
type tracedSource struct {
	source.Source
	t *tracer
}

func (t *tracer) source(src source.Source) source.Source { return tracedSource{Source: src, t: t} }

func (s tracedSource) Fetch(ctx context.Context) (*core.List, source.Meta, error) {
	fs := fetchSpan{swap: s.t.swapID.Load(), start: s.t.b.now()}
	list, meta, err := s.Source.Fetch(ctx)
	fs.end = s.t.b.now()
	fs.changed = err == nil
	if err != nil && !errors.Is(err, source.ErrNotModified) {
		fmt.Fprintf(os.Stderr, "servebench: fetch: %v\n", err)
	}
	s.t.mu.Lock()
	s.t.fetches = append(s.t.fetches, fs)
	s.t.mu.Unlock()
	return list, meta, err
}

// deliver times the deliver func and records the build time of the
// snapshot it installed.
func (t *tracer) deliver(d func(source.Swap), st *serve.Store) func(source.Swap) {
	return func(sw source.Swap) {
		ds := deliverSpan{swap: t.swapID.Load(), start: t.b.now()}
		d(sw)
		ds.end = t.b.now()
		ds.build = st.Current().BuildInfo().BuildNanos
		t.mu.Lock()
		t.delivers = append(t.delivers, ds)
		t.builds = append(t.builds, ds.build)
		t.mu.Unlock()
	}
}

func (t *tracer) recordBuild(snap *serve.Snapshot) {
	t.mu.Lock()
	t.builds = append(t.builds, snap.BuildInfo().BuildNanos)
	t.mu.Unlock()
}

func (t *tracer) beginSwap(id int64) { t.swapID.Store(id) }
func (t *tracer) endSwap()           { t.swapID.Store(0) }

// swapPhases splits each swap into kick (publish → fetch start), fetch,
// watch diff (fetch return → deliver start), deliver, and visible
// (deliver return → first response with the new ETag), in milliseconds.
func (t *tracer) swapPhases() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]float64{}
	ms := func(d int64) float64 { return float64(d) / 1e6 }
	for _, s := range t.b.swaps {
		var f *fetchSpan
		for i := range t.fetches {
			if t.fetches[i].swap == s.id && t.fetches[i].changed {
				f = &t.fetches[i]
				break
			}
		}
		var d *deliverSpan
		for i := range t.delivers {
			if t.delivers[i].swap == s.id {
				d = &t.delivers[i]
				break
			}
		}
		if f == nil || d == nil {
			continue
		}
		out["swap.kick_ms"] = append(out["swap.kick_ms"], ms(f.start-s.publish))
		out["swap.fetch_ms"] = append(out["swap.fetch_ms"], ms(f.end-f.start))
		out["swap.watch_diff_ms"] = append(out["swap.watch_diff_ms"], ms(d.start-f.end))
		out["swap.deliver_ms"] = append(out["swap.deliver_ms"], ms(d.end-d.start))
		out["swap.visible_ms"] = append(out["swap.visible_ms"], ms(s.visible-d.end))
		out["store.install_ms"] = append(out["store.install_ms"], ms(d.end-d.start-d.build))
	}
	return out
}

// serverSpans indexes the recorded server spans by trace ID.
func (t *tracer) serverSpans() map[int64]span {
	n := min(t.nServer.Load(), int64(len(t.server)))
	m := make(map[int64]span, n)
	for _, s := range t.server[:n] {
		m[s.id] = s
	}
	return m
}

// write stores every span as tab-separated kind, id, parent, start and
// end (ns since the run began) under dir.
func (t *tracer) write(dir, name string, stages []*stage) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind\tid\tparent\tstart_ns\tend_ns")
	for _, st := range stages {
		for _, rs := range st.recs {
			for _, r := range rs {
				if r.id != 0 {
					fmt.Fprintf(w, "client\t%d\t0\t%d\t%d\n", r.id, r.sent, r.done)
				}
			}
		}
	}
	for _, s := range t.server[:min(t.nServer.Load(), int64(len(t.server)))] {
		fmt.Fprintf(w, "serve\t%d\t%d\t%d\t%d\n", s.id, s.id, s.start, s.end)
	}
	t.mu.Lock()
	for _, s := range t.b.swaps {
		fmt.Fprintf(w, "swap\t%d\t0\t%d\t%d\n", s.id, s.publish, s.visible)
	}
	for _, fs := range t.fetches {
		fmt.Fprintf(w, "fetch\t%d\t%d\t%d\t%d\n", fs.swap, fs.swap, fs.start, fs.end)
	}
	for _, ds := range t.delivers {
		fmt.Fprintf(w, "deliver\t%d\t%d\t%d\t%d\n", ds.swap, ds.swap, ds.start, ds.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
