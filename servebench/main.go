// Command servebench is the serve-plane benchmark. It wires rws-serve's
// plane in-process — source.HTTPSource → source.Watcher →
// Server.SwapDeliver → serve.Store → serve.Server behind net/http on
// 127.0.0.1 — feeds it the list revisions a harness origin publishes, and
// drives it from the same process over at most nproc keep-alive
// connections. One run generates the workload's inputs from the seed,
// sets the node up several times, runs the load phases, checks sampled
// answers and every swap against an oracle, and prints every metric by
// name with its unit and sample count. The last line of standard output
// is one JSON object: the end-to-end metrics, or with -trace 1 the
// per-layer metrics of a traced run.
//
// Usage (from the repository root, through the build script):
//
//	bash servebench/run.sh -p99-limit-ms 50 -workload read_wide -seed 1 -seconds 48 -trace 0
//
// Workloads: read_wide, swap_churn (see workload.go).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rwskit/internal/core"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	conns    int
	limit    time.Duration
	out      string
}

// Each round of a run sets a node up at least once and again, up to
// setupMax times, while the round's setups took less than setupBudget;
// setup_s is the median over every round and the serving node's setup.
// Cheap setups are thus repeated more, and the rounds spread them over
// the run, averaging over the shared machine's speed, which drifts on a
// scale of seconds.
const (
	setupMax    = 4
	setupBudget = 600 * time.Millisecond
)

// searchStages is the number of open-loop stages the rate search runs,
// and the number of rounds of an untraced run: one stage per round.
const searchStages = 6

// searchStep is the search's multiplicative step before it bisects. From
// the frozen high rate, about 70% of the knee, two steps overshoot the
// knee, which leaves the search's last three stages to bisect.
const searchStep = 1.25

// searchStageDur is one search stage: long enough that whether a stage
// passes does not hinge on one second of a shared machine's speed.
const searchStageDur = 3 * time.Second

// runLimit stops a run that would overrun the benchmark's time budget.
const runLimit = 170 * time.Second

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "servebench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	wl := fs.String("workload", "", "read_wide or swap_churn")
	seed := fs.Int64("seed", 1, "seed for the inputs and the arrival schedules")
	secs := fs.Int("seconds", 20, "measured seconds, split over the load phases")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer variant")
	conns := fs.Int("conns", runtime.NumCPU(), "keep-alive connections (at most nproc)")
	limit := fs.Float64("p99-limit-ms", 0, "p99 latency limit of the max-rate search, in ms")
	out := fs.String("out", ".bench_build", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{workload: *wl, seed: *seed, seconds: *secs, trace: *trace == 1, conns: *conns,
		limit: time.Duration(*limit * float64(time.Millisecond)), out: *out}
	switch {
	case fs.NArg() != 0:
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	case workloads[cfg.workload].name == "":
		return cfg, fmt.Errorf("unknown workload %q (want read_wide or swap_churn)", cfg.workload)
	case *trace != 0 && *trace != 1:
		return cfg, errors.New("-trace must be 0 or 1")
	case time.Duration(cfg.seconds)*time.Second < 2*searchStages*searchStageDur:
		return cfg, fmt.Errorf("-seconds must be at least %v", 2*searchStages*searchStageDur)
	case cfg.limit <= 0:
		return cfg, errors.New("-p99-limit-ms is required")
	case cfg.conns < 1 || cfg.conns > runtime.NumCPU():
		return cfg, fmt.Errorf("-conns %d: the harness drives at most nproc (%d) connections", cfg.conns, runtime.NumCPU())
	}
	return cfg, nil
}

// bench is one run's state.
type bench struct {
	cfg   config
	w     workload
	seed  int64
	epoch time.Time

	rs   *revisionSet
	revs []*revision // the revisions setup installs
	// hashRev maps every published revision's hash to its index.
	hashRev   map[string]int
	listCache map[int]*core.List

	origin *origin // followed by the serving node
	// setupOrigin is followed by the nodes set up only to time setup.
	setupOrigin *origin
	gen         *generator
	conns       []*conn
	tr          *tracer

	watch   atomic.Pointer[swapWatch]
	swapSeq int64
	swaps   []swapSample
	// churnRev is the next revision a churn swap publishes.
	churnRev int
	mix      mixCount

	attempted, failed int
	mismatches        []string
}

func (b *bench) now() int64 { return int64(time.Since(b.epoch)) }

// account adds a stage's requests to the run's totals.
func (b *bench) account(st *stage) {
	sent, failed := st.counts()
	b.attempted += sent
	b.failed += failed
}

func (b *bench) fail(format string, a ...any) {
	b.failed++
	msg := fmt.Sprintf(format, a...)
	b.mismatches = append(b.mismatches, msg)
	fmt.Fprintln(os.Stderr, "servebench: FAIL:", msg)
}

// revList returns the list of revision idx, rebuilding churn revisions
// on demand.
func (b *bench) revList(idx int) (*core.List, error) {
	if idx < len(b.revs) {
		return b.revs[idx].list, nil
	}
	if l, ok := b.listCache[idx]; ok {
		return l, nil
	}
	if len(b.listCache) > 8 {
		clear(b.listCache)
	}
	l, err := core.NewList(b.rs.sets(idx))
	if err != nil {
		return nil, err
	}
	b.listCache[idx] = l
	return l, nil
}

// result is the JSON line the run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects named values in the order they are measured.
type metrics struct {
	names []string
	vals  map[string]metricValue
	n     map[string]int
}

func newMetrics() *metrics {
	return &metrics{vals: map[string]metricValue{}, n: map[string]int{}}
}

func (m *metrics) add(name string, v float64, unit string, samples int) {
	if _, ok := m.vals[name]; !ok {
		m.names = append(m.names, name)
	}
	m.vals[name] = metricValue{Value: v, Unit: unit}
	m.n[name] = samples
}

func (m *metrics) print() {
	for _, name := range m.names {
		v := m.vals[name]
		fmt.Printf("metric %-26s %14.4f %-6s n=%d\n", name, v.Value, v.Unit, m.n[name])
	}
}

// latency adds the p50 and p99 of a stage's latency, refusing a p99
// without enough samples beyond it.
func latency(m *metrics, prefix, suffix string, s summary, scale float64) error {
	p99, err := s.tail(0.99)
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	m.add(prefix+"p50"+suffix, s.quantile(0.5)/scale, unitOf(scale), s.n())
	m.add(prefix+"p99"+suffix, p99/scale, unitOf(scale), s.n())
	return nil
}

// stageLatency adds the p50 and p99 in µs of the fixed-rate stages sts,
// each the median over the stages' one-second windows. These metrics are
// printed, not gated, so one without enough samples is reported as
// missing rather than failing the run.
func stageLatency(m *metrics, sts []*stage, suffix string) {
	for _, q := range []struct {
		name string
		q    float64
	}{{"lat_p50_us" + suffix, 0.5}, {"lat_p99_us" + suffix, 0.99}} {
		v, n, windows, err := windowedAll(sts, q.q)
		if err != nil {
			fmt.Printf("%s: %v\n", q.name, err)
			continue
		}
		m.add(q.name, v/1e3, "us", n)
		fmt.Printf("%s: median of %d one-second windows\n", q.name, windows)
	}
}

func unitOf(scale float64) string {
	switch scale {
	case 1:
		return "ns"
	case 1e3:
		return "us"
	}
	return "ms"
}

func run(ctx context.Context, cfg config) (*result, error) {
	w := workloads[cfg.workload]
	b := &bench{cfg: cfg, w: w, seed: cfg.seed, epoch: time.Now(), hashRev: map[string]int{}, listCache: map[int]*core.List{}}
	// Generate the inputs: benchmark work, outside every timed interval.
	rs, err := newRevisionSet(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	b.rs = rs
	for i := 0; i < w.preload; i++ {
		rev, err := rs.build(i)
		if err != nil {
			return nil, err
		}
		b.revs = append(b.revs, rev)
		b.hashRev[rev.hash] = i
	}
	b.churnRev = len(b.revs)
	b.gen = newGenerator(w, rs, b.revs, cfg.seed)
	pools := make([][]*request, cfg.conns)
	for i := range pools {
		pools[i] = b.gen.pool(1 << 14)
	}
	if cfg.trace {
		b.tr = newTracer(b)
	}
	if b.origin, err = startOrigin(); err != nil {
		return nil, err
	}
	defer b.origin.close()
	if b.setupOrigin, err = startOrigin(); err != nil {
		return nil, err
	}
	defer b.setupOrigin.close()

	// e2e holds the end-to-end metrics BENCHMARK.json gates; extra holds
	// the ones printed beside them whose run-to-run spread on a small
	// shared machine is too wide to gate (see SPREAD.md).
	e2e, extra, layers := newMetrics(), newMetrics(), newMetrics()
	// The serving node follows b.origin for the whole run; its setup is
	// the first setup_s sample.
	n, d, err := b.setup(ctx, b.origin)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer n.stop()
	setups := []float64{d.Seconds()}

	for i, p := range pools {
		b.conns = append(b.conns, &conn{b: b, id: i, c: newClient(n.addr), pool: p})
	}
	defer func() {
		for _, cn := range b.conns {
			cn.c.close()
		}
	}()
	runtime.GC()
	b.warmup()

	var stages, highs, lows []*stage
	gc0 := gcCount()
	cpu0, wall0 := cpuSeconds(), time.Now()
	if cfg.trace {
		// The traced variant runs each phase once, after one round of
		// set-ups that adds swaps and builds to the per-layer medians: the
		// closed loop half untraced and half traced, then the high- and
		// low-rate stages.
		more, err := b.setupSamples(ctx)
		if err != nil {
			return nil, err
		}
		setups = append(setups, more...)
		runtime.GC()
		rest := time.Duration(cfg.seconds)*time.Second - searchStages*searchStageDur
		part := func(f float64) time.Duration { return time.Duration(f * float64(rest)) }
		plain := b.closedLoop("closed", part(w.phases.closed/2))
		runtime.GC()
		b.tr.on.Store(true)
		traced := b.closedLoop("closed_traced", part(w.phases.closed/2))
		layers.add("trace.overhead_frac", 1-traced.achieved()/plain.achieved(), "ratio", 2)
		runtime.GC()
		high := b.openLoop("high", w.highRate, part(w.phases.high))
		b.report(high, cfg.limit)
		runtime.GC()
		low := b.lowStage(n, "low", part(w.phases.low))
		stages, highs, lows = []*stage{plain, traced, high, low}, []*stage{high}, []*stage{low}
	} else {
		rr, err := b.rounds(ctx, n)
		if err != nil {
			return nil, err
		}
		stages, highs, lows = rr.stages, rr.highs, rr.lows
		setups = append(setups, rr.setups...)
		e2e.add("closed_rps", median(rr.closedRps), "req/s", len(rr.closedRps))
		fmt.Printf("closed_rps per round: %.0f\n", rr.closedRps)
		if s := rr.search; s.best >= 0 {
			extra.add("max_rate_rps", s.tried[s.best].achieved, "req/s", len(s.tried))
		} else {
			// On a contended machine every stage can miss, if only by the
			// generator running late; the ungated metric is then left out.
			fmt.Printf("max_rate_rps: no stage met the limit (from %.0f req/s)\n", w.highRate)
		}
	}
	wall := time.Since(wall0)
	stageLatency(extra, highs, ".high")
	stageLatency(extra, lows, ".low")
	e2e.add("setup_s", median(setups), "s", len(setups))
	fmt.Printf("setup_s per setup: %.3f\n", setups)
	b.attempted += len(b.swaps)

	var swapMs []float64
	for _, s := range b.swaps {
		swapMs = append(swapMs, s.ms())
	}
	if len(swapMs) == 0 {
		return nil, errors.New("no swaps measured")
	}
	extra.add("swap_ms", median(swapMs), "ms", len(swapMs))
	fmt.Printf("swap_ms per swap: %.0f\n", swapMs)
	e2e.add("peak_rss_mb", peakRSSMB(), "MB", 1)

	b.checkSamples(stages)
	b.properties(layers)
	fmt.Printf("workload %s seed %d conns %d p99-limit %v\n", w.name, cfg.seed, len(b.conns), cfg.limit)
	extra.add("fail_frac", float64(b.failed)/float64(b.attempted), "ratio", b.attempted)
	extra.print()

	out := e2e
	if cfg.trace {
		if err := b.layerMetrics(n, layers, highs[0], gc0, cpu0, wall); err != nil {
			return nil, err
		}
		if err := b.tr.write(filepath.Join(cfg.out, "trace"), fmt.Sprintf("%s-seed%d.tsv", w.name, cfg.seed), stages); err != nil {
			return nil, err
		}
		out = layers
	} else {
		layers.print()
	}
	out.print()
	res := &result{Correct: len(b.mismatches) == 0 && b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, name := range out.names {
		v := out.vals[name]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v.Value)
		}
		res.Metrics[name] = v
	}
	return res, nil
}

// rounds runs the measured part of an untraced run as searchStages equal
// rounds. Each round sets a node up, then runs a closed loop, one stage of
// the rate search, and the high- and low-rate stages (with swaps on a
// churn workload). Every metric is thus sampled across the whole run, and
// a stretch of seconds in which the shared machine runs slow moves one
// sample of each rather than all of one metric. It returns the closed
// loop's rate of every round, the setups' seconds, the stages and the
// search.
func (b *bench) rounds(ctx context.Context, n *node) (*roundsResult, error) {
	cfg, w := b.cfg, b.w
	rest := time.Duration(cfg.seconds)*time.Second/searchStages - searchStageDur
	part := func(f float64) time.Duration { return time.Duration(f * float64(rest)) }
	rr := &roundsResult{search: newSearch(w.highRate, searchStep, searchStages)}
	search := rr.search
	for r := 0; !search.done(); r++ {
		more, err := b.setupSamples(ctx)
		if err != nil {
			return nil, err
		}
		rr.setups = append(rr.setups, more...)
		runtime.GC()
		closed := b.closedLoop(fmt.Sprintf("closed-%d", r), part(w.phases.closed))
		rr.closedRps = append(rr.closedRps, closed.achieved())
		closed.recs = nil // counted; dropped so the live heap stays level
		runtime.GC()
		rate := search.next()
		st := b.openLoop(fmt.Sprintf("search-%d-%.0f", r, rate), rate, searchStageDur)
		// A search stage past the knee is expected to miss; its misses do
		// not count as failures of the run.
		sent, failed := st.counts()
		b.attempted -= sent
		b.failed -= failed
		search.record(b.report(st, cfg.limit))
		st.recs = nil
		runtime.GC()
		high := b.openLoop(fmt.Sprintf("high-%d", r), w.highRate, part(w.phases.high))
		b.report(high, cfg.limit)
		runtime.GC()
		low := b.lowStage(n, fmt.Sprintf("low-%d", r), part(w.phases.low))
		rr.stages = append(rr.stages, closed, st, high, low)
		rr.highs, rr.lows = append(rr.highs, high), append(rr.lows, low)
	}
	return rr, nil
}

type roundsResult struct {
	stages, highs, lows []*stage
	closedRps, setups   []float64
	search              *search
}

// lowStage runs the low-rate stage, with swaps beside it on a churn
// workload; a failed swap counts as a failed operation.
func (b *bench) lowStage(n *node, name string, dur time.Duration) *stage {
	var churnErrs []error
	var wg sync.WaitGroup
	if b.w.churn {
		until := time.Now().Add(dur)
		wg.Add(1)
		go func() {
			defer wg.Done()
			churnErrs = b.churn(n, until)
		}()
	}
	low := b.openLoop(name, b.w.lowRate, dur)
	wg.Wait()
	for _, err := range churnErrs {
		b.attempted++
		b.fail("%v", err)
	}
	b.report(low, b.cfg.limit)
	return low
}

// setupSamples sets a node up from the setup origin, stops it, and
// repeats while the round's setups took less than setupBudget, at least
// once and at most setupMax times. It returns every setup's seconds.
// The serving node is left alone: it follows its own origin.
func (b *bench) setupSamples(ctx context.Context) ([]float64, error) {
	var secs []float64
	var total time.Duration
	for i := 0; i < setupMax && (i < 1 || total < setupBudget); i++ {
		runtime.GC()
		n, d, err := b.setup(ctx, b.setupOrigin)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		n.stop()
		secs = append(secs, d.Seconds())
		total += d
	}
	return secs, nil
}

// warmup opens every connection and touches every endpoint of the mix
// in a short closed loop; its requests count as attempted.
func (b *bench) warmup() {
	b.closedLoop("warmup", 500*time.Millisecond)
}

// report prints one open-loop stage with its generator validity.
func (b *bench) report(st *stage, limit time.Duration) outcome {
	o := judge(st, limit)
	fmt.Printf("stage %-14s offered %8.0f achieved %8.1f (%.3f) p50 %6.0fus win_p99 %8.0fus failed %d unsent %d gen_late_p99 %6.0fus end_late %6.0fus valid %v pass %v\n",
		st.name, o.offered, o.achieved, o.frac, st.latency().quantile(0.5)/1e3, o.p99/1e3, o.failed, st.unsent, o.genLateP99/1e3, o.endLate/1e3, o.valid, o.pass)
	return o
}

// checkSamples runs the oracle over every kept response, grouped by
// revision so churn revisions are rebuilt once each. When the run churned,
// some samples must come from the revisions its swaps installed, or the
// answers served during swaps went unchecked.
func (b *bench) checkSamples(stages []*stage) {
	var all []sample
	for _, cn := range b.conns {
		all = append(all, cn.samples...)
	}
	rev := func(s sample) int { return b.hashRev[strings.Trim(s.etag, `"`)] }
	sort.SliceStable(all, func(i, j int) bool { return rev(all[i]) < rev(all[j]) })
	churned, revs := 0, map[int]bool{}
	for _, s := range all {
		if err := b.checkSample(s); err != nil {
			b.fail("oracle: %v", err)
		}
		revs[rev(s)] = true
		if rev(s) >= len(b.revs) {
			churned++
		}
	}
	for _, st := range stages {
		fmt.Printf("oracle: stage %-14s kept %d samples\n", st.name, st.sampled)
	}
	fmt.Printf("oracle checked %d sampled responses from %d revisions (%d from churned revisions) and %d swaps: %d mismatches\n",
		len(all), len(revs), churned, len(b.swaps), len(b.mismatches))
	if b.w.churn && churned == 0 {
		b.attempted++
		b.fail("oracle: no sampled response came from a revision the churn swaps installed")
	}
}

// mixCount accumulates the input properties of every request the load
// phases sent, stage by stage, so a stage's records can be dropped once
// its own metrics are taken.
type mixCount struct {
	sent, fast, off, pinned, nonCanon, pairs, same int
	seen                                           []map[int32]bool // per connection: pool indexes sent
}

// countMix adds a finished stage's requests to b.mix.
func (b *bench) countMix(st *stage) {
	m := &b.mix
	for len(m.seen) < len(b.conns) {
		m.seen = append(m.seen, map[int32]bool{})
	}
	for ci, rs := range st.recs {
		for _, r := range rs {
			q := b.conns[ci].pool[r.req]
			m.sent++
			m.seen[ci][r.req] = true
			if q.fast {
				m.fast++
			}
			if q.offList {
				m.off++
			}
			if q.rev >= 0 {
				m.pinned++
			}
			if q.nonCanon {
				m.nonCanon++
			}
			m.pairs += q.pairs
			m.same += q.samePair
		}
	}
}

// properties reports the measured shares of the input properties over
// every request the load phases sent.
func (b *bench) properties(m *metrics) {
	c := &b.mix
	cur := b.gen.cur.list
	hosts := map[string]bool{}
	for ci, idx := range c.seen {
		for i := range idx {
			for _, h := range b.conns[ci].pool[i].hosts {
				if c := core.CanonicalHost(h); !hosts[c] {
					if _, _, ok := cur.FindSet(c); ok {
						hosts[c] = true
					}
				}
			}
		}
	}
	frac := func(a, n int) float64 { return float64(a) / float64(max(n, 1)) }
	m.add("mix.fast_frac", frac(c.fast, c.sent), "ratio", c.sent)
	m.add("mix.sameset_frac", frac(c.same, c.pairs), "ratio", c.pairs)
	m.add("mix.offlist_frac", frac(c.off, c.sent), "ratio", c.sent)
	m.add("mix.pinned_frac", frac(c.pinned, c.sent), "ratio", c.sent)
	m.add("mix.noncanon_frac", frac(c.nonCanon, c.sent), "ratio", c.sent)
	m.add("mix.hosts_touched_frac", frac(len(hosts), cur.NumSites()), "ratio", len(hosts))
	m.add("mix.churn_frac", float64(b.rs.step)/float64(b.rs.size), "ratio", 1)
}

// layerMetrics computes the per-layer metrics of a traced run.
func (b *bench) layerMetrics(n *node, m *metrics, high *stage, gc0 uint32, cpu0 float64, wall time.Duration) error {
	m.add("client.late_p99_us", high.lateness().quantile(0.99)/1e3, "us", high.lateness().n())
	m.add("client.conns", float64(len(b.conns)), "count", 1)

	spans := b.tr.serverSpans()
	var self, fastNs, slowNs []int64
	var busy int64
	for ci, rs := range high.recs {
		for _, r := range rs {
			s, ok := spans[r.id]
			if !ok || !r.ok {
				continue
			}
			d := s.end - s.start
			busy += d
			self = append(self, (r.done-r.sent)-d)
			if b.conns[ci].pool[r.req].fast {
				fastNs = append(fastNs, d)
			} else {
				slowNs = append(slowNs, d)
			}
		}
	}
	if err := latency(m, "net.self_us.", "", newSummary(self), 1e3); err != nil {
		return err
	}
	if err := latency(m, "net.queue_us.", "", high.queue(), 1e3); err != nil {
		return err
	}
	if err := latency(m, "serve.http_ns.fast.", "", newSummary(fastNs), 1); err != nil {
		return err
	}
	if err := latency(m, "serve.http_ns.slow.", "", newSummary(slowNs), 1); err != nil {
		return err
	}
	m.add("serve.busy_frac", float64(busy)/(float64(high.dur.Nanoseconds())*float64(runtime.NumCPU())), "ratio", len(self))

	if err := b.directCalls(n, m); err != nil {
		return err
	}
	b.tr.mu.Lock()
	var builds, fetches []float64
	for _, v := range b.tr.builds {
		builds = append(builds, float64(v)/1e6)
	}
	polls := len(b.tr.fetches)
	for _, f := range b.tr.fetches {
		if f.changed {
			fetches = append(fetches, float64(f.end-f.start)/1e6)
		}
	}
	b.tr.mu.Unlock()
	m.add("snapshot.build_ms", median(builds), "ms", len(builds))
	phases := b.tr.swapPhases()
	m.add("store.install_ms", median(phases["store.install_ms"]), "ms", len(phases["store.install_ms"]))
	m.add("source.fetch_ms", median(fetches), "ms", len(fetches))
	m.add("source.polls", float64(polls), "count", polls)
	m.add("source.not_modified_frac", float64(b.origin.notModified.Load())/float64(max(polls, 1)), "ratio", polls)
	m.add("source.body_mb", float64(b.origin.bodyBytes.Load())/(1<<20), "MB", int(b.origin.full.Load()))
	for _, name := range []string{"swap.kick_ms", "swap.fetch_ms", "swap.watch_diff_ms", "swap.deliver_ms", "swap.visible_ms"} {
		m.add(name, median(phases[name]), "ms", len(phases[name]))
	}
	runtimeMetrics(m, gc0, cpu0, wall)
	return nil
}

func gcCount() uint32 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.NumGC
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's VmHWM in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
