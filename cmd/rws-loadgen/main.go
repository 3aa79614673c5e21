// Command rws-loadgen is a keep-alive load generator for rws-serve
// with two modes:
//
//   - Closed loop (default): N workers issue queries back-to-back over
//     persistent connections, so the measured numbers reflect the
//     server's query plane rather than TCP dial latency. Latency runs
//     from each request's actual send.
//   - Open loop (-rate): requests launch on a rate-driven arrival
//     schedule (Poisson by default, -arrival fixed for even spacing)
//     that does not wait for completions, and latency is measured from
//     each request's intended send time — the wrk2-style correction for
//     coordinated omission.
//
// Both modes share one worker loop, one latency histogram, and one
// minimal HTTP/1.1 client: one persistent connection per worker per
// target, plain http:// targets only. Finding the rate a node sustains
// is servebench's job (its rate search), not this tool's.
//
// -targets runs the same mix against several endpoints at once — a
// leader plus its /v1/list followers — spreading requests round-robin
// across the URLs (weighted by an optional =N suffix per URL) and
// reporting per-target req/s and latency alongside the aggregate. The
// spread is deterministic: each worker walks the weight-expanded target
// ring from its own phase, so a seed pins the full (scenario, target)
// sequence.
//
// Usage:
//
//	rws-loadgen -target http://host:port[/prefix] [-workers 8] [-duration 10s]
//	            [-mix sameset=4,set=3,partition=2,batch=1] [-seed 1]
//	            [-list file-or-url | -amplify N [-amplify-seed S]]
//	            [-rate R] [-arrival poisson|fixed] [-batch 8] [-json]
//	rws-loadgen -targets http://leader:8080=2,http://f1:8081,http://f2:8082
//	            [same flags]
//
// Scenarios:
//
//	sameset    GET  /v1/sameset?a=&b=
//	set        GET  /v1/set?site=
//	partition  GET  /v1/partition?top=&embedded=
//	batch      GET  /v1/sameset?pairs= (-batch pairs per request)
//	asof       GET  /v1/sameset?a=&b=&as_of=   (time-travel reads)
//	diff       GET  /v1/diff?from=&to=         (version-pair diffs)
//	churn      GET  /v1/churn?from=&to=        (version-chain churn rollups)
//
// asof, diff, and churn (weight 0 unless named in -mix) exercise the
// version store: the generator fetches /v1/versions from the target once
// at startup and draws as_of instants and from/to hash pairs from the
// retained versions (churn draws them in as-of order), so they pair
// naturally with rws-serve -timeline.
//
// Hosts are drawn deterministically from the list (-list, default the
// embedded snapshot) with a seeded PRNG per worker, so two runs with the
// same flags issue the same request sequence. Half of each pair scenario
// picks two members of one set (hitting the related/precomputed path),
// half picks two hosts at random. The report gives req/s and
// p50/p90/p95/p99/p99.9/max latency over every completed request, and
// the run exits nonzero if any request failed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rwskit/internal/amplify"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
	"rwskit/internal/source"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rws-loadgen:", err)
		os.Exit(1)
	}
}

// scenarioID indexes the request mix.
type scenarioID int

const (
	scSameSet scenarioID = iota
	scSet
	scPartition
	scBatch
	scAsOf
	scDiff
	scChurn
	numScenarios
)

var scenarioNames = [numScenarios]string{
	scSameSet:   "sameset",
	scSet:       "set",
	scPartition: "partition",
	scBatch:     "batch",
	scAsOf:      "asof",
	scDiff:      "diff",
	scChurn:     "churn",
}

// targetSpec is one endpoint of a (possibly multi-target) run.
type targetSpec struct {
	url    string
	weight int
	// addr, host and prefix are the dial address, Host header and base
	// path every worker's client uses, resolved once in parseTargets.
	addr, host, prefix string
}

type config struct {
	target      string // display form: the URL, or the joined -targets list
	targets     []targetSpec
	workers     int
	duration    time.Duration
	weights     [numScenarios]int
	mix         string
	seed        int64
	list        string
	amplify     int
	amplifySeed int64
	batch       int
	timeout     time.Duration
	jsonOut     bool
	rate        float64
	arrival     string
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("rws-loadgen", flag.ContinueOnError)
	target := fs.String("target", "", "base URL of the rws-serve instance")
	targets := fs.String("targets", "", "comma-separated base URLs url[=weight],... for a weighted round-robin multi-endpoint run (excludes -target)")
	workers := fs.Int("workers", 8, "concurrent closed-loop workers")
	duration := fs.Duration("duration", 10*time.Second, "how long to generate load")
	mix := fs.String("mix", "sameset=4,set=3,partition=2,batch=1", "scenario weights")
	seed := fs.Int64("seed", 1, "PRNG seed for deterministic host selection")
	list := fs.String("list", "", "draw hosts from this list file or URL (default: embedded snapshot)")
	amp := fs.Int("amplify", 0, "draw hosts from a synthetic amplified list of N sets (pair with rws-serve -amplify)")
	ampSeed := fs.Int64("amplify-seed", 1, "seed for -amplify (must match the server's)")
	batch := fs.Int("batch", 8, "pairs per batch request")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	rate := fs.Float64("rate", 0, "open-loop offered rate in req/s across all workers (0 = closed loop)")
	arrival := fs.String("arrival", "poisson", "open-loop arrival process: poisson or fixed")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() != 0 {
		return config{}, errors.New("usage: rws-loadgen -target URL [flags]")
	}
	cfg := config{
		workers:  *workers,
		duration: *duration, mix: *mix, seed: *seed, list: *list,
		amplify: *amp, amplifySeed: *ampSeed,
		batch: *batch, timeout: *timeout, jsonOut: *jsonOut,
		rate: *rate, arrival: *arrival,
	}
	var err error
	if cfg.targets, err = parseTargets(*target, *targets); err != nil {
		return config{}, err
	}
	urls := make([]string, len(cfg.targets))
	for i, t := range cfg.targets {
		urls[i] = t.url
	}
	cfg.target = strings.Join(urls, ",")
	if cfg.workers < 1 {
		return config{}, errors.New("-workers must be >= 1")
	}
	if cfg.duration <= 0 {
		return config{}, errors.New("-duration must be > 0")
	}
	if cfg.batch < 1 || cfg.batch > 500 {
		return config{}, errors.New("-batch must be in [1, 500]")
	}
	if cfg.amplify < 0 {
		return config{}, errors.New("-amplify must be >= 0")
	}
	if cfg.amplify > 0 && cfg.list != "" {
		return config{}, errors.New("-amplify excludes -list")
	}
	if cfg.arrival != "poisson" && cfg.arrival != "fixed" {
		return config{}, errors.New("-arrival must be poisson or fixed")
	}
	if cfg.rate < 0 {
		return config{}, errors.New("-rate must be >= 0")
	}
	if cfg.weights, err = parseMix(*mix); err != nil {
		return config{}, err
	}
	return cfg, nil
}

// parseTargets resolves -target/-targets (exactly one must be given)
// into the endpoint list. Each -targets entry is url[=weight]; weights
// default to 1 and set the entry's share of the round-robin ring.
func parseTargets(single, multi string) ([]targetSpec, error) {
	if single != "" && multi != "" {
		return nil, errors.New("-target and -targets are mutually exclusive")
	}
	if single != "" {
		t, err := newTarget(single, 1)
		return []targetSpec{t}, err
	}
	var specs []targetSpec
	for _, part := range strings.Split(multi, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		weight := 1
		if u, w, ok := strings.Cut(part, "="); ok {
			n, err := strconv.Atoi(strings.TrimSpace(w))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("-targets: bad weight in %q (want url=positive-int)", part)
			}
			part, weight = strings.TrimSpace(u), n
		}
		t, err := newTarget(part, weight)
		if err != nil {
			return nil, err
		}
		specs = append(specs, t)
	}
	if len(specs) == 0 {
		return nil, errors.New("-target or -targets is required")
	}
	return specs, nil
}

// newTarget validates one target URL and resolves what its clients
// need: the dial address, the Host header, and the base path every
// request path is appended to.
func newTarget(raw string, weight int) (targetSpec, error) {
	raw = strings.TrimSuffix(raw, "/")
	u, err := url.Parse(raw)
	if err != nil {
		return targetSpec{}, fmt.Errorf("target %q: %v", raw, err)
	}
	if u.Scheme != "http" || u.Host == "" {
		return targetSpec{}, fmt.Errorf("target %q: want http://host[:port][/path] (the client speaks plain HTTP/1.1)", raw)
	}
	t := targetSpec{url: raw, weight: weight, addr: u.Host, host: u.Host, prefix: u.EscapedPath()}
	if u.Port() == "" {
		t.addr += ":80"
	}
	return t, nil
}

// parseMix parses "sameset=4,set=3,partition=2,batch=1". Omitted
// scenarios get weight 0; at least one weight must be positive.
func parseMix(s string) ([numScenarios]int, error) {
	var w [numScenarios]int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return w, fmt.Errorf("-mix: want name=weight, got %q", part)
		}
		n, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || n < 0 {
			return w, fmt.Errorf("-mix: bad weight in %q", part)
		}
		found := false
		for id, sn := range scenarioNames {
			if sn == strings.TrimSpace(name) {
				w[id] = n
				found = true
				break
			}
		}
		if !found {
			return w, fmt.Errorf("-mix: unknown scenario %q (want sameset, set, partition, batch, asof, diff, churn)", name)
		}
	}
	// Validate the final weights, not a running total: a duplicate key
	// ("sameset=4,sameset=0") can zero out what an earlier entry set.
	total := 0
	for _, n := range w {
		total += n
	}
	if total == 0 {
		return w, errors.New("-mix: at least one scenario needs a positive weight")
	}
	return w, nil
}

// ScenarioStats is one scenario's share of a report.
type ScenarioStats struct {
	Scenario string `json:"scenario"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
}

// TargetStats is one endpoint's share of a multi-target report: its
// achieved throughput and latency alongside the run-wide aggregate.
type TargetStats struct {
	Target    string  `json:"target"`
	Weight    int     `json:"weight"`
	Requests  uint64  `json:"requests"`
	Errors    uint64  `json:"errors"`
	ReqPerSec float64 `json:"req_per_sec"`
	P50Micros int64   `json:"p50_micros"`
	P99Micros int64   `json:"p99_micros"`
}

// Report is the load-generation result. Mode "closed" measures
// per-request service latency; mode "open" measures latency from each
// request's intended send time at the offered rate.
type Report struct {
	Target        string          `json:"target"`
	Workers       int             `json:"workers"`
	Mix           string          `json:"mix"`
	Seed          int64           `json:"seed"`
	Mode          string          `json:"mode"`
	Arrival       string          `json:"arrival,omitempty"`
	OfferedRate   float64         `json:"offered_rate,omitempty"`
	ElapsedMillis int64           `json:"elapsed_millis"`
	Requests      uint64          `json:"requests"`
	Errors        uint64          `json:"errors"`
	ReqPerSec     float64         `json:"req_per_sec"`
	P50Micros     int64           `json:"p50_micros"`
	P90Micros     int64           `json:"p90_micros"`
	P95Micros     int64           `json:"p95_micros"`
	P99Micros     int64           `json:"p99_micros"`
	P999Micros    int64           `json:"p999_micros"`
	MaxMicros     int64           `json:"max_micros"`
	Scenarios     []ScenarioStats `json:"scenarios"`
	// Targets breaks the run down per endpoint; present only on
	// multi-target (-targets) runs.
	Targets []TargetStats `json:"targets,omitempty"`
}

func run(ctx context.Context, args []string, out io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	list, err := loadHosts(ctx, cfg)
	if err != nil {
		return err
	}
	gen, err := newGenerator(cfg, list)
	if err != nil {
		return err
	}
	if err := gen.primeVersions(ctx); err != nil {
		return err
	}
	rep, err := gen.Run(ctx, cfg.rate)
	if err != nil {
		return err
	}
	if cfg.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		err = enc.Encode(rep)
	} else {
		rep.write(out)
	}
	if err != nil {
		return err
	}
	// A broken target must fail the run (and the CI smoke), not just
	// color a column: every error here is a non-2xx or a dead server.
	if rep.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", rep.Errors, rep.Requests)
	}
	return nil
}

func (r Report) write(w io.Writer) {
	fmt.Fprintf(w, "rws-loadgen: target=%s workers=%d mix=%s seed=%d mode=%s\n", r.Target, r.Workers, r.Mix, r.Seed, r.Mode)
	if r.Mode == "open" {
		fmt.Fprintf(w, "  offered   %.0f req/s (%s arrivals)\n", r.OfferedRate, r.Arrival)
	}
	fmt.Fprintf(w, "  elapsed   %.2fs\n", float64(r.ElapsedMillis)/1000)
	fmt.Fprintf(w, "  requests  %d (%.1f req/s)\n", r.Requests, r.ReqPerSec)
	fmt.Fprintf(w, "  errors    %d\n", r.Errors)
	fmt.Fprintf(w, "  latency   p50=%dµs p90=%dµs p95=%dµs p99=%dµs p99.9=%dµs max=%dµs\n",
		r.P50Micros, r.P90Micros, r.P95Micros, r.P99Micros, r.P999Micros, r.MaxMicros)
	for _, s := range r.Scenarios {
		fmt.Fprintf(w, "  %-9s %d requests, %d errors\n", s.Scenario, s.Requests, s.Errors)
	}
	for _, t := range r.Targets {
		fmt.Fprintf(w, "  target %s (weight %d): %d requests (%.1f req/s), %d errors, p50=%dµs p99=%dµs\n",
			t.Target, t.Weight, t.Requests, t.ReqPerSec, t.Errors, t.P50Micros, t.P99Micros)
	}
}

// loadHosts resolves the host universe: an amplified synthetic list
// (-amplify, matching a server booted with the same rws-serve -amplify
// parameters), the embedded snapshot, or any list a Source can fetch
// (file path or http(s) URL).
func loadHosts(ctx context.Context, cfg config) (*core.List, error) {
	if cfg.amplify > 0 {
		return amplify.Generate(amplify.Config{Sets: cfg.amplify, Seed: cfg.amplifySeed})
	}
	if cfg.list == "" {
		return dataset.List()
	}
	list, _, err := source.Open(cfg.list).Fetch(ctx)
	return list, err
}

// generator runs the load workers.
type generator struct {
	cfg    config
	hosts  []string   // every member host, sorted (deterministic)
	groups [][]string // per-set member hosts, for related-pair picks
	pick   []scenarioID

	// targetPick is the weight-expanded target ring: workers walk it
	// round-robin from their own phase, so the (scenario, target)
	// sequence is deterministic per seed and the long-run share of each
	// endpoint matches its weight.
	targetPick []int

	// hashes and asOfs are the target's retained versions, fetched once
	// at startup when the mix includes a versioned scenario. Server
	// order (oldest first) keeps runs deterministic per seed.
	hashes []string
	asOfs  []string
}

// wantsVersions reports whether the mix includes a scenario that needs
// the target's version list.
func (g *generator) wantsVersions() bool {
	return g.cfg.weights[scAsOf] > 0 || g.cfg.weights[scDiff] > 0 || g.cfg.weights[scChurn] > 0
}

// primeVersions fetches the retained versions for the asof and diff
// scenarios from the first target (on a multi-target run the endpoints
// replicate the same store, so any one of them is authoritative). A mix
// without versioned scenarios skips the request entirely.
func (g *generator) primeVersions(ctx context.Context) error {
	if !g.wantsVersions() {
		return nil
	}
	base := g.cfg.targets[0].url
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/versions", nil)
	if err != nil {
		return err
	}
	// A one-shot fetch off the measured path, so net/http's body and
	// JSON handling cost nothing that matters.
	resp, err := (&http.Client{Timeout: g.cfg.timeout}).Do(req)
	if err != nil {
		return fmt.Errorf("fetching %s/v1/versions for the asof/diff scenarios: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetching %s/v1/versions: %s (asof/diff need a version-store rws-serve)", base, resp.Status)
	}
	var body struct {
		Versions []struct {
			Hash string    `json:"hash"`
			AsOf time.Time `json:"as_of"`
		} `json:"versions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return fmt.Errorf("decoding /v1/versions: %w", err)
	}
	if len(body.Versions) == 0 {
		return errors.New("target retains no versions; asof/diff/churn scenarios have nothing to query")
	}
	// Order by as-of time so the churn scenario can draw from/to pairs
	// the server's chain walk accepts (from must not be newer than to).
	sort.SliceStable(body.Versions, func(i, j int) bool {
		return body.Versions[i].AsOf.Before(body.Versions[j].AsOf)
	})
	for _, v := range body.Versions {
		g.hashes = append(g.hashes, v.Hash)
		g.asOfs = append(g.asOfs, v.AsOf.Format(time.RFC3339))
	}
	return nil
}

func newGenerator(cfg config, list *core.List) (*generator, error) {
	g := &generator{cfg: cfg}
	for _, set := range list.Sets() {
		sites := set.Sites()
		g.hosts = append(g.hosts, sites...)
		if len(sites) >= 2 {
			g.groups = append(g.groups, sites)
		}
	}
	if len(g.hosts) < 2 || len(g.groups) == 0 {
		return nil, errors.New("list too small to generate load from")
	}
	sort.Strings(g.hosts)
	// The weighted picker: an index slice sampled uniformly.
	for id, w := range cfg.weights {
		for i := 0; i < w; i++ {
			g.pick = append(g.pick, scenarioID(id))
		}
	}
	// The target ring, expanded the same way.
	for ti, t := range cfg.targets {
		for i := 0; i < t.weight; i++ {
			g.targetPick = append(g.targetPick, ti)
		}
	}
	return g, nil
}

// newWorkerRNG seeds worker id's PRNG from the run seed, so the request
// sequence is reproducible per (seed, worker) regardless of scheduling.
func newWorkerRNG(seed int64, id int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(id)<<32))
}

// pair picks two distinct hosts: half the time two members of one set
// (the related/precomputed path), half the time two uniform hosts
// (almost always cross-set).
func (g *generator) pair(rng *rand.Rand) (string, string) {
	if rng.Intn(2) == 0 {
		set := g.groups[rng.Intn(len(g.groups))]
		i := rng.Intn(len(set))
		j := rng.Intn(len(set) - 1)
		if j >= i {
			j++
		}
		return set[i], set[j]
	}
	i := rng.Intn(len(g.hosts))
	j := rng.Intn(len(g.hosts) - 1)
	if j >= i {
		j++
	}
	return g.hosts[i], g.hosts[j]
}

// buildPath renders one scenario draw as a request path and query.
func (g *generator) buildPath(sc scenarioID, rng *rand.Rand) string {
	switch sc {
	case scSameSet:
		a, b := g.pair(rng)
		return fmt.Sprintf("/v1/sameset?a=%s&b=%s", url.QueryEscape(a), url.QueryEscape(b))
	case scSet:
		return fmt.Sprintf("/v1/set?site=%s", url.QueryEscape(g.hosts[rng.Intn(len(g.hosts))]))
	case scPartition:
		top, emb := g.pair(rng)
		return fmt.Sprintf("/v1/partition?top=%s&embedded=%s", url.QueryEscape(top), url.QueryEscape(emb))
	case scBatch:
		var sb strings.Builder
		for i := 0; i < g.cfg.batch; i++ {
			if i > 0 {
				sb.WriteByte(';')
			}
			a, b := g.pair(rng)
			sb.WriteString(a)
			sb.WriteByte(',')
			sb.WriteString(b)
		}
		return fmt.Sprintf("/v1/sameset?pairs=%s", url.QueryEscape(sb.String()))
	case scAsOf:
		a, b := g.pair(rng)
		asOf := g.asOfs[rng.Intn(len(g.asOfs))]
		return fmt.Sprintf("/v1/sameset?a=%s&b=%s&as_of=%s",
			url.QueryEscape(a), url.QueryEscape(b), url.QueryEscape(asOf))
	case scDiff:
		from := g.hashes[rng.Intn(len(g.hashes))]
		to := g.hashes[rng.Intn(len(g.hashes))]
		return fmt.Sprintf("/v1/diff?from=%s&to=%s", from[:12], to[:12])
	case scChurn:
		// Draw an ordered (from, to) pair: the churn chain rejects a from
		// newer than to.
		i, j := rng.Intn(len(g.hashes)), rng.Intn(len(g.hashes))
		if i > j {
			i, j = j, i
		}
		return fmt.Sprintf("/v1/churn?from=%s&to=%s", g.hashes[i][:12], g.hashes[j][:12])
	}
	return "/"
}
