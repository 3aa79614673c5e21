// Command rws-serve exposes Related Website Sets queries as an HTTP
// service: relatedness checks, set lookups, storage-partitioning
// verdicts, list statistics, and server metrics.
//
// Usage:
//
//	rws-serve [-addr :8080] [-list file-or-url] [-poll interval]
//	          [-timeline] [-retain N] [-amplify N [-amplify-seed S]]
//
// Without -list, the embedded reconstruction of the 26 March 2024
// snapshot is served. -amplify N boots from a deterministic synthetic
// list of N sets instead (rws-amplify's generator; -amplify-seed picks
// the seed) — the scale-tier target for load and soak testing. -list
// accepts a local JSON file path or an http(s):// URL (the upstream
// related_website_sets.JSON). Either way the list is hot-swapped without
// dropping traffic: SIGHUP forces a re-read, and -poll re-checks on a
// ticker — a stat(2) gated on mtime/size for files, a conditional GET
// (If-None-Match / If-Modified-Since, answered 304 when unchanged) for
// URLs — with every swap gated on the list content hash and logged with
// a diff summary. A revision the source delivers always installs:
// building its snapshot cannot fail.
// SIGINT/SIGTERM drain in-flight requests before exiting.
//
// Every node exports its current list at GET /v1/list with strong cache
// validators, so a serve node can be the origin for other serve nodes:
// point a follower's -list at a leader's /v1/list URL
// (`rws-serve -list http://leader:8080/v1/list -poll 1s`) and it tracks
// the leader through the same conditional-GET loop used for any remote
// list — an edge tier with zero new protocols. A follower detects the
// leader's replication headers and advertises its state (upstream,
// synced version hash, swap-propagation lag_ms, consecutive-304 streak)
// under "replication" in /v1/metrics.
//
// Superseded lists stay queryable: the server retains the last -retain
// versions (plus the whole timeline under -timeline) and answers
// version=/as_of= parameters, /v1/versions, and /v1/diff against them.
// -timeline preloads the paper's full 2023-01→2024-03 monthly study
// window at boot, so time-travel queries span the §4 longitudinal
// analyses; the final month is the current version (and a -list source,
// if given, installs on top of it).
//
// Endpoints:
//
//	GET  /healthz
//	GET  /v1/sameset?a=SITE&b=SITE          (or ?pairs=a1,b1;a2,b2;...)
//	GET  /v1/set?site=SITE
//	GET  /v1/partition?top=SITE&embedded=SITE[&policy=rws|strict|prompt|legacy]
//	POST /v1/partition/batch
//	GET  /v1/stats
//	GET  /v1/list
//	GET  /v1/metrics
//	GET  /v1/versions
//	GET  /v1/diff?from=SPEC&to=SPEC
//	GET  /v1/churn?from=SPEC&to=SPEC[&granularity=G]
//
// sameset, set, partition, and stats also accept version=HASHPREFIX or
// as_of=TIME ("2023-04", "2023-04-26", or RFC 3339).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"rwskit/internal/amplify"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
	"rwskit/internal/history"
	"rwskit/internal/serve"
	"rwskit/internal/source"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "rws-serve:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled (gracefully draining in-flight
// requests) or the listener fails. ready, if non-nil, is called with the
// bound address once the server is listening — the test hook.
func run(ctx context.Context, args []string, ready func(addr string)) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	src, list, meta, err := openList(ctx, cfg)
	if err != nil {
		return err
	}
	srv, err := newServer(cfg, list, meta)
	if err != nil {
		return err
	}
	// A -list pointing at another rws-serve's /v1/list makes this node a
	// follower: the boot fetch carries the leader's replication headers,
	// so record the initial sync and advertise the state in /v1/metrics.
	if meta.Follows() {
		srv.RecordReplicationSwap(meta)
		fmt.Fprintf(os.Stderr, "rws-serve: following leader %s (version %.12s)\n", cfg.list, meta.UpstreamVersion)
	}

	// cancel releases the watcher and signal goroutines on every exit
	// path, including a listener failure where ctx was never cancelled.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	if src != nil {
		w := source.NewWatcher(src, cfg.poll, list, func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "rws-serve: "+format+"\n", a...)
		})
		// Poll outcomes feed the replication counters (304 streak, poll
		// errors); cheap no-op bookkeeping when not following.
		w.OnPoll = srv.RecordReplicationPoll
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer signal.Stop(hup)
			for {
				select {
				case <-ctx.Done():
					return
				case <-hup:
					w.Refresh()
				}
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx, srv.SwapDeliver(os.Stderr))
		}()
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	httpSrv := newHTTPServer(srv)
	fmt.Fprintf(os.Stderr, "rws-serve: serving %d sets on %s\n", list.NumSets(), ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		cancel()
		wg.Wait()
		return err
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "rws-serve: shutting down, draining in-flight requests")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := httpSrv.Shutdown(shutCtx)
		<-errc // Serve has returned http.ErrServerClosed
		wg.Wait()
		return err
	}
}

// openList resolves the boot list: -amplify generates a synthetic
// scale-tier list (no source, no reloading), an empty -list serves the
// embedded snapshot, and anything else opens a Source — file path or
// http(s) URL — and performs the initial fetch through it, so the
// source's freshness gates (stat, ETag/Last-Modified) are primed for the
// watcher's conditional polls and the boot version carries the same
// provenance every later swap of the source will.
func openList(ctx context.Context, cfg config) (source.Source, *core.List, source.Meta, error) {
	if cfg.amplify > 0 {
		list, err := amplify.Generate(amplify.Config{Sets: cfg.amplify, Seed: cfg.amplifySeed})
		return nil, list, source.Meta{}, err
	}
	if cfg.list == "" {
		list, err := dataset.List()
		return nil, list, source.Meta{}, err
	}
	src := source.Open(cfg.list)
	list, meta, err := src.Fetch(ctx)
	if err != nil {
		return nil, nil, source.Meta{}, err
	}
	return src, list, meta, nil
}

// newServer builds the version store behind the server: optionally the
// full monthly study-window timeline (-timeline), then the boot list as
// the current version. With -timeline the capacity is widened to hold
// every month plus headroom for live swaps, so preloaded history is not
// immediately evicted by the poll loop.
func newServer(cfg config, list *core.List, meta source.Meta) (*serve.Server, error) {
	capacity := cfg.retain
	var st *serve.Store
	if cfg.timeline {
		tl, err := history.Build()
		if err != nil {
			return nil, err
		}
		if capacity < len(tl.Snapshots)+1 {
			capacity = len(tl.Snapshots) + 1
		}
		st = serve.NewStore(capacity)
		// AddList's error is always nil: a snapshot build cannot fail.
		for _, snap := range tl.Snapshots {
			asOf, err := time.Parse("2006-01", snap.Month)
			if err != nil {
				return nil, fmt.Errorf("timeline month %q: %w", snap.Month, err)
			}
			st.AddList(snap.List, core.Version{Source: "timeline:" + snap.Month, AsOf: asOf})
		}
		fmt.Fprintf(os.Stderr, "rws-serve: timeline preloaded %d monthly versions (%s..%s)\n",
			st.Len(), tl.Snapshots[0].Month, tl.Final().Month)
	} else {
		st = serve.NewStore(capacity)
	}
	// The boot list's version: the source's own provenance (file mtime /
	// Last-Modified as the as-of time, exactly what SwapDeliver files
	// later revisions under), the amplifier's parameters, or the embedded
	// snapshot's date. When the timeline's final month already carries
	// this content (the embedded snapshot IS the final month), keep the
	// timeline provenance instead of re-filing it under "embedded".
	ver := meta.Version()
	switch {
	case cfg.amplify > 0:
		ver.Source = fmt.Sprintf("amplify:%d:seed=%d", cfg.amplify, cfg.amplifySeed)
	case cfg.list == "":
		ver.Source = "embedded"
		if t, err := time.Parse("2006-01-02", dataset.SnapshotDate); err == nil {
			ver.AsOf = t
		}
	}
	// Hash the boot list once: the source already did when it set
	// meta.Hash, and AddList trusts ver.Hash instead of hashing again.
	if ver.Hash == "" {
		ver.Hash = list.Hash()
	}
	if cur := st.Current(); cur == nil || cur.Hash() != ver.Hash {
		st.AddList(list, ver) // the error is always nil
	}
	return serve.NewFromStore(st), nil
}

// newHTTPServer wraps a handler with the timeouts a public-facing
// service needs (slow-header and idle connections must not pin
// goroutines forever).
func newHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

type config struct {
	addr        string
	list        string
	poll        time.Duration
	timeline    bool
	retain      int
	amplify     int
	amplifySeed int64
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("rws-serve", flag.ContinueOnError)
	a := fs.String("addr", ":8080", "listen address")
	l := fs.String("list", "", "list JSON file or http(s) URL (default: embedded snapshot; SIGHUP reloads)")
	p := fs.Duration("poll", 0, "re-check -list on this interval (0 disables; stat/conditional-GET gated)")
	tl := fs.Bool("timeline", false, "preload the 2023-01..2024-03 monthly snapshots for as_of/diff queries")
	r := fs.Int("retain", serve.DefaultRetain, "list versions kept queryable (widened to fit -timeline)")
	amp := fs.Int("amplify", 0, "boot from a synthetic amplified list of N sets (scale testing; excludes -list/-timeline)")
	ampSeed := fs.Int64("amplify-seed", 1, "seed for -amplify (same seed reproduces the same list)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() != 0 {
		return config{}, fmt.Errorf("usage: rws-serve [-addr :8080] [-list file-or-url] [-poll interval] [-timeline] [-retain N] [-amplify N [-amplify-seed S]]")
	}
	if *p > 0 && *l == "" {
		return config{}, fmt.Errorf("-poll requires -list")
	}
	if *p < 0 {
		return config{}, fmt.Errorf("-poll must be >= 0")
	}
	if *r < 1 {
		return config{}, fmt.Errorf("-retain must be >= 1")
	}
	if *amp < 0 {
		return config{}, fmt.Errorf("-amplify must be >= 0")
	}
	if *amp > 0 && (*l != "" || *tl) {
		return config{}, fmt.Errorf("-amplify excludes -list and -timeline")
	}
	return config{addr: *a, list: *l, poll: *p, timeline: *tl, retain: *r, amplify: *amp, amplifySeed: *ampSeed}, nil
}
