package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rwskit/internal/serve"
	"rwskit/internal/source"
)

// pollInterval is the node's watcher period: short, so that most polls
// are answered 304, as when following GitHub raw or a leader's /v1/list.
const pollInterval = 50 * time.Millisecond

// origin publishes one list revision at a time the way GitHub raw or a
// leader's /v1/list does: a strong ETag, Last-Modified, and 304 to a
// matching If-None-Match.
type origin struct {
	url  string
	srv  *http.Server
	done chan struct{}

	mu   sync.Mutex
	rev  *revision // guarded by mu
	etag string    // guarded by mu

	requests, notModified, full, bodyBytes atomic.Int64
}

func startOrigin() (*origin, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	o := &origin{url: "http://" + ln.Addr().String() + "/related_website_sets.JSON", done: make(chan struct{})}
	o.srv = &http.Server{Handler: o, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(o.done)
		o.srv.Serve(ln)
	}()
	return o, nil
}

func (o *origin) publish(r *revision) {
	o.mu.Lock()
	o.rev, o.etag = r, `"rev-`+strconv.Itoa(r.idx)+`"`
	o.mu.Unlock()
}

func (o *origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.mu.Lock()
	rev, etag := o.rev, o.etag
	o.mu.Unlock()
	o.requests.Add(1)
	h := w.Header()
	h.Set("ETag", etag)
	if r.Header.Get("If-None-Match") == etag {
		o.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Last-Modified", rev.asOf.Format(http.TimeFormat))
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(rev.body)))
	o.full.Add(1)
	o.bodyBytes.Add(int64(len(rev.body)))
	w.Write(rev.body)
}

func (o *origin) close() {
	o.srv.Close()
	<-o.done
}

// node is one serve plane wired the way cmd/rws-serve wires a follower:
// source.HTTPSource → source.Watcher → Server.SwapDeliver → serve.Store →
// serve.Server behind a net/http server on 127.0.0.1.
type node struct {
	origin  *origin
	st      *serve.Store
	srv     *serve.Server
	watcher *source.Watcher
	httpSrv *http.Server
	addr    string
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// stop shuts the node down and waits for its goroutines.
func (n *node) stop() {
	n.cancel()
	n.httpSrv.Close()
	n.wg.Wait()
}

// swapWatch detects the first response that carries an awaited ETag.
type swapWatch struct {
	want   string
	seenAt atomic.Int64
	seen   chan struct{}
}

func newSwapWatch(hash string) *swapWatch {
	return &swapWatch{want: `"` + hash + `"`, seen: make(chan struct{})}
}

// observe records the first response carrying the awaited ETag.
func (sw *swapWatch) observe(etag []byte, at int64) {
	if string(etag) == sw.want && sw.seenAt.CompareAndSwap(0, at) {
		close(sw.seen)
	}
}

// swapSample is one swap: publish → first response with the new ETag.
type swapSample struct {
	id               int64
	rev              int
	publish, visible int64
	// gc is the collection forced before the publish, outside the swap.
	gc time.Duration
}

func (s swapSample) ms() float64 { return float64(s.visible-s.publish) / 1e6 }

// setup boots a node that follows origin o from revision 0 and installs
// the remaining preloaded revisions as swaps. The timed interval runs from the
// node's first fetch to the first correct answer on the last revision,
// less the collections forced before the swaps; generating the revisions
// is benchmark work and happens before.
func (b *bench) setup(ctx context.Context, o *origin) (*node, time.Duration, error) {
	o.publish(b.revs[0])
	start := time.Now()
	var src source.Source = source.NewHTTPSource(o.url, source.HTTPConfig{})
	if b.tr != nil {
		src = b.tr.source(src)
	}
	list, meta, err := src.Fetch(ctx)
	if err != nil {
		return nil, 0, fmt.Errorf("boot fetch: %w", err)
	}
	st := serve.NewStoreWith(serve.DefaultRetain, serve.SnapshotOptions{})
	snap, err := st.AddList(list, meta.Version())
	if err != nil {
		return nil, 0, fmt.Errorf("boot list: %w", err)
	}
	if b.tr != nil {
		b.tr.recordBuild(snap)
	}
	n := &node{origin: o, st: st, srv: serve.NewFromStore(st)}
	wctx, cancel := context.WithCancel(ctx)
	n.cancel = cancel
	n.watcher = source.NewWatcher(src, pollInterval, list, func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "servebench: "+format+"\n", a...)
	})
	n.watcher.OnPoll = n.srv.RecordReplicationPoll
	deliver := n.srv.SwapDeliver(io.Discard)
	if b.tr != nil {
		deliver = b.tr.deliver(deliver, st)
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.watcher.Run(wctx, deliver)
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		cancel()
		n.wg.Wait()
		return nil, 0, err
	}
	var h http.Handler = n.srv
	if b.tr != nil {
		h = b.tr.handler(n.srv)
	}
	n.httpSrv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	n.addr = ln.Addr().String()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.httpSrv.Serve(ln)
	}()

	probe := newClient(n.addr)
	defer probe.close()
	if err := b.awaitAnswer(probe, b.revs[0], nil); err != nil {
		n.stop()
		return nil, 0, err
	}
	var gc time.Duration
	for _, rev := range b.revs[1:] {
		s, err := b.swap(n, rev, probe, time.Time{})
		if err != nil {
			n.stop()
			return nil, 0, err
		}
		gc += s.gc
	}
	return n, time.Since(start) - gc, nil
}

// swapTimeout is how long a probe waits for a swap before it counts as
// never served.
const swapTimeout = 30 * time.Second

// probeGap is the pause between probe requests: short beside a swap of
// hundreds of milliseconds, long enough that the probe leaves the CPUs to
// the swap it waits for.
const probeGap = 200 * time.Microsecond

// awaitAnswer polls the probe query until a response carries rev's ETag,
// then checks that answer with the oracle. Every response is offered to
// sw when it is non-nil.
func (b *bench) awaitAnswer(probe *client, rev *revision, sw *swapWatch) error {
	q := b.probeRequest(rev)
	deadline := time.Now().Add(swapTimeout)
	for first := true; time.Now().Before(deadline); first = false {
		if !first {
			time.Sleep(probeGap)
		}
		status, err := probe.get(q.path, 0)
		if sw != nil && err == nil {
			sw.observe(probe.etag, b.now())
		}
		if err != nil || string(probe.etag) != `"`+rev.hash+`"` {
			continue
		}
		if status != http.StatusOK {
			return fmt.Errorf("probe %s: status %d", q.path, status)
		}
		return checkAnswer(rev.list, q, probe.body)
	}
	return fmt.Errorf("revision %d (hash %.12s) never served", rev.idx, rev.hash)
}

// probeRequest is a same-set query on rev's first multi-member set.
func (b *bench) probeRequest(rev *revision) *request {
	for _, s := range rev.list.Sets() {
		if m := s.Sites(); len(m) >= 2 {
			r := &request{kind: kSameSet, rev: -1, hosts: []string{m[0], m[1]}}
			r.path = "/v1/sameset?a=" + m[0] + "&b=" + m[1]
			return r
		}
	}
	panic("servebench: revision without a multi-member set")
}

// swap publishes rev at the node's origin, kicks the watcher, and waits until a
// response carries rev's ETag: from the probe client when one is given,
// otherwise from the load connections until loadUntil, when their stage
// ends, and from a probe after that. The served ETag is the hash the
// node computed, so seeing it checks the node against core.List.Hash of
// the published revision.
//
// A collection is forced before the publish. Every swap then starts from
// the same heap state; left alone, the garbage of one swap set off a
// collection inside every second one, and the median over a run fell on
// either side of that split.
func (b *bench) swap(n *node, rev *revision, probe *client, loadUntil time.Time) (swapSample, error) {
	sw := newSwapWatch(rev.hash)
	b.swapSeq++
	s := swapSample{id: b.swapSeq, rev: rev.idx}
	gcStart := time.Now()
	runtime.GC()
	s.gc = time.Since(gcStart)
	b.watch.Store(sw)
	defer b.watch.Store(nil)
	if b.tr != nil {
		b.tr.beginSwap(s.id)
	}
	s.publish = b.now()
	n.origin.publish(rev)
	n.watcher.Refresh()
	if probe == nil {
		select {
		case <-sw.seen:
		case <-time.After(time.Until(loadUntil)):
			// The load stage ended first; a swap that is slow on a
			// contended machine is not a failed one.
			probe = newClient(n.addr)
			defer probe.close()
		}
	}
	if probe != nil {
		if err := b.awaitAnswer(probe, rev, sw); err != nil {
			return s, err
		}
	}
	s.visible = sw.seenAt.Load()
	b.hashRev[rev.hash] = rev.idx
	b.swaps = append(b.swaps, s)
	if b.tr != nil {
		b.tr.endSwap()
	}
	return s, nil
}

// churnEvery is the swap cadence: one revision is published per tick,
// and a swap finishes inside one, so a run measures many equal swaps and
// reads see swaps and the quiet between them in a fixed proportion.
const churnEvery = time.Second

// churn publishes the next revision every churnEvery until too little of
// the low-rate stage is left for another swap to finish under reads. It
// returns the swaps that failed; a swap never seen is one of them.
func (b *bench) churn(n *node, until time.Time) []error {
	var errs []error
	var last time.Duration
	next := time.Now()
	for ; ; b.churnRev++ {
		rev, err := b.rs.build(b.churnRev)
		if err != nil {
			return append(errs, err)
		}
		time.Sleep(time.Until(next))
		next = next.Add(churnEvery)
		if time.Until(until) < 2*last+500*time.Millisecond {
			return errs
		}
		s, err := b.swap(n, rev, nil, until)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		last = time.Duration(s.visible - s.publish)
	}
}
