// Command rws-benchgate is the CI benchmark-regression gate: it parses
// two `go test -bench` text outputs (a committed baseline and the
// current run), reduces each benchmark's samples to their minimum ns/op,
// and fails when a gated benchmark regressed past the threshold.
//
// Usage:
//
//	rws-benchgate -current BENCH.txt [-baseline BASELINE.txt]
//	              [-threshold 1.25] [-match REGEX] [-write-json BENCH.json]
//	              [-assert-zero-alloc REGEX]
//
// The inputs are plain `go test -bench` output (any -count; a
// benchmark's repeated samples are reduced to their minimum before
// comparing, which is what makes a 5-count run meaningfully comparable).
// Scheduler and cache interference only ever add time, so the fastest
// of N runs is the least-disturbed measurement — medians of short
// (-benchtime=100x) runs on a busy box routinely swing 2x while the min
// stays put. -match selects which benchmarks gate the build; everything
// else is reported but cannot fail it. A gated benchmark that vanishes
// from the current run fails the build too, so a deleted or renamed
// hot-path benchmark cannot silently disarm its gate.
// When the baseline's cpu: header names different hardware than the
// current run's, the timing gate demotes itself to an informational
// report (hardware deltas would drown the threshold); -ignore-cpu
// overrides. The allocation gate is never demoted: allocs/op does not
// depend on the hardware, so every benchmark both runs report it for
// (any -benchmem run) fails the build when its fewest-allocation current
// sample allocates more than the baseline's most-allocating one, with
// 0.1% slack on counts of 1,000 or more.
// A benchmark whose baseline minimum is under minGateNs (e.g. a
// sub-nanosecond atomic load measured with -benchtime=100x) is timed
// below the timer's resolution: it is reported but never fails.
// Without -baseline the gate only parses and reports the current run —
// the bootstrap path CI uses until a baseline is committed.
//
// -write-json emits the parsed current run as JSON (the BENCH_9.json
// artifact), so later tooling can diff runs without re-parsing text.
//
// -assert-zero-alloc REGEX asserts that every current-run sample of
// every benchmark matching REGEX reports 0 allocs/op (the runs must use
// -benchmem). Unlike the timing gate it is hardware-independent, so it
// fails the build even when the cpu guard demotes the ratio comparison
// — and it fails when no matching benchmark carries an allocs/op
// column, so a renamed benchmark or a dropped -benchmem flag cannot
// silently disarm the assertion.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rws-benchgate:", err)
		os.Exit(1)
	}
}

type config struct {
	baseline  string
	current   string
	threshold float64
	match     *regexp.Regexp
	ignoreCPU bool
	writeJSON string
	zeroAlloc *regexp.Regexp
}

// minGateNs is the timing floor: a benchmark whose baseline minimum is
// below it is reported, never gated.
const minGateNs = 50

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("rws-benchgate", flag.ContinueOnError)
	baseline := fs.String("baseline", "", "baseline `go test -bench` output (optional: without it, only report)")
	current := fs.String("current", "", "current `go test -bench` output (required)")
	threshold := fs.Float64("threshold", 1.25, "fail when the current/baseline ratio of minimum ns/op exceeds this")
	match := fs.String("match", ".*", "regexp choosing the benchmarks that gate the build")
	ignoreCPU := fs.Bool("ignore-cpu", false, "gate even when the baseline's cpu: header differs from the current run's")
	writeJSON := fs.String("write-json", "", "write the parsed current run as JSON to this path")
	zeroAlloc := fs.String("assert-zero-alloc", "", "regexp of benchmarks that must report 0 allocs/op in the current run")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if *current == "" || fs.NArg() != 0 {
		return config{}, fmt.Errorf("usage: rws-benchgate -current FILE [-baseline FILE] [-threshold R] [-match RE] [-write-json FILE]")
	}
	if *threshold <= 1 {
		return config{}, fmt.Errorf("-threshold must be > 1, got %g", *threshold)
	}
	re, err := regexp.Compile(*match)
	if err != nil {
		return config{}, fmt.Errorf("-match: %v", err)
	}
	cfg := config{
		baseline: *baseline, current: *current, threshold: *threshold,
		match: re, ignoreCPU: *ignoreCPU, writeJSON: *writeJSON,
	}
	if *zeroAlloc != "" {
		if cfg.zeroAlloc, err = regexp.Compile(*zeroAlloc); err != nil {
			return config{}, fmt.Errorf("-assert-zero-alloc: %v", err)
		}
	}
	return cfg, nil
}

// benchLine matches one result line of `go test -bench` output:
// name(-GOMAXPROCS), iteration count, ns/op. The trailing -benchmem
// allocs/op column, when present, feeds the allocation gate and
// -assert-zero-alloc.
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op`)
	allocsCol = regexp.MustCompile(`\s(\d+) allocs/op`)
)

// benchRun is one parsed `go test -bench` output: per-benchmark ns/op
// samples (and allocs/op where -benchmem reported them) plus the cpu:
// header, which identifies the hardware the numbers were taken on.
type benchRun struct {
	samples map[string][]float64
	allocs  map[string][]int64
	cpu     string
}

// parseBench reads `go test -bench` text and collects every sample's
// ns/op per benchmark name (GOMAXPROCS suffix stripped, so baselines
// survive a runner core-count change) plus the cpu: header.
func parseBench(r io.Reader) (benchRun, error) {
	out := benchRun{samples: make(map[string][]float64), allocs: make(map[string][]int64)}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			out.cpu = strings.TrimSpace(cpu)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return benchRun{}, fmt.Errorf("parsing %q: %v", line, err)
		}
		out.samples[m[1]] = append(out.samples[m[1]], ns)
		if a := allocsCol.FindStringSubmatch(line); a != nil {
			n, err := strconv.ParseInt(a[1], 10, 64)
			if err != nil {
				return benchRun{}, fmt.Errorf("parsing %q: %v", line, err)
			}
			out.allocs[m[1]] = append(out.allocs[m[1]], n)
		}
	}
	if err := sc.Err(); err != nil {
		return benchRun{}, err
	}
	if len(out.samples) == 0 {
		return benchRun{}, fmt.Errorf("no benchmark result lines found")
	}
	return out, nil
}

// median reduces one benchmark's samples; with an even count it takes
// the mean of the middle pair. The input is copied, not reordered.
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minOf returns the smallest sample — the least-interfered run.
func minOf(samples []float64) float64 {
	m := samples[0]
	for _, s := range samples[1:] {
		if s < m {
			m = s
		}
	}
	return m
}

// row is one benchmark's comparison.
type row struct {
	name    string
	baseNs  float64
	curNs   float64
	verdict string // "ok", "REGRESSED", "MISSING", "skipped (below floor)", "new"
}

// compare builds the per-benchmark verdict table. A gated row fails the
// build when it regressed past the threshold — or when it vanished from
// the current run entirely, because a deleted or renamed hot-path
// benchmark would otherwise silently disarm its gate. The two failure
// kinds are reported separately: regressions are timing comparisons
// (only meaningful on the baseline's hardware), while a missing gated
// benchmark is a structural failure independent of where the run
// happened. New benchmarks and ungated disappearances are
// informational.
func compare(base, cur map[string][]float64, cfg config) (rows []row, regressed, missing bool) {
	names := make(map[string]bool, len(base)+len(cur))
	for n := range base {
		names[n] = true
	}
	for n := range cur {
		names[n] = true
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	for _, name := range ordered {
		r := row{name: name}
		bs, hasBase := base[name]
		cs, hasCur := cur[name]
		switch {
		case !hasBase:
			r.curNs = minOf(cs)
			r.verdict = "new"
		case !hasCur:
			r.baseNs = minOf(bs)
			if cfg.match.MatchString(name) {
				r.verdict = "MISSING (gated benchmark vanished)"
				missing = true
			} else {
				r.verdict = "missing"
			}
		default:
			r.baseNs, r.curNs = minOf(bs), minOf(cs)
			switch {
			case !cfg.match.MatchString(name):
				r.verdict = "ok (not gated)"
			case r.baseNs < minGateNs:
				r.verdict = fmt.Sprintf("skipped (baseline below %dns floor)", minGateNs)
			default:
				if r.curNs > r.baseNs*cfg.threshold {
					r.verdict = "REGRESSED"
					regressed = true
				} else {
					r.verdict = "ok"
				}
			}
		}
		rows = append(rows, r)
	}
	return rows, regressed, missing
}

// allocJitter divides a baseline allocs/op count into the slack the gate
// allows (0.1%). Runtime and GC-timed allocations move the scale-tier
// counts by a few per 10⁵–10⁶ from run to run; below 1,000 allocs/op
// the slack is 0, so the hot-path handlers are held exactly.
const allocJitter = 1000

// allocRegressions lists every benchmark both runs report allocs/op for
// whose fewest-allocation current sample allocates more than the
// baseline's most-allocating sample plus 1/allocJitter of it, so
// run-to-run jitter cannot flap the gate.
func allocRegressions(base, cur map[string][]int64) []string {
	var out []string
	for name, cs := range cur {
		bs, ok := base[name]
		if !ok {
			continue
		}
		if lo, hi := slices.Min(cs), slices.Max(bs); lo > hi+hi/allocJitter {
			out = append(out, fmt.Sprintf("%s: %d allocs/op, baseline %d", name, lo, hi))
		}
	}
	sort.Strings(out)
	return out
}

// jsonResult is one benchmark in the -write-json artifact.
type jsonResult struct {
	Name       string    `json:"name"`
	Samples    []float64 `json:"samples_ns_op"`
	MinNsOp    float64   `json:"min_ns_op"`
	MedianNsOp float64   `json:"median_ns_op"`
}

func writeJSONFile(path string, cur map[string][]float64) error {
	names := make([]string, 0, len(cur))
	for n := range cur {
		names = append(names, n)
	}
	sort.Strings(names)
	results := make([]jsonResult, 0, len(names))
	for _, n := range names {
		results = append(results, jsonResult{Name: n, Samples: cur[n], MinNsOp: minOf(cur[n]), MedianNsOp: median(cur[n])})
	}
	body, err := json.MarshalIndent(struct {
		Benchmarks []jsonResult `json:"benchmarks"`
	}{results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

// assertZeroAlloc enforces -assert-zero-alloc against the current run.
// Every sample of every matching benchmark must report 0 allocs/op, and
// at least one matching benchmark must carry the column at all — a run
// without -benchmem (or with the benchmarks renamed away) fails rather
// than passing vacuously.
func assertZeroAlloc(cur benchRun, re *regexp.Regexp, out io.Writer) error {
	names := make([]string, 0, len(cur.samples))
	for n := range cur.samples {
		if re.MatchString(n) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("-assert-zero-alloc %v matched no benchmarks in the current run", re)
	}
	checked := 0
	var dirty []string
	for _, n := range names {
		allocs, ok := cur.allocs[n]
		if !ok {
			continue
		}
		checked++
		for _, a := range allocs {
			if a != 0 {
				dirty = append(dirty, fmt.Sprintf("%s: %d allocs/op", n, a))
				break
			}
		}
	}
	if checked == 0 {
		return fmt.Errorf("-assert-zero-alloc %v: no matching benchmark reports an allocs/op column (run with -benchmem)", re)
	}
	if len(dirty) > 0 {
		return fmt.Errorf("allocations on asserted zero-alloc benchmarks: %s", strings.Join(dirty, "; "))
	}
	fmt.Fprintf(out, "rws-benchgate: %d benchmarks matching %v hold 0 allocs/op\n", checked, re)
	return nil
}

func parseFile(path string) (benchRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return benchRun{}, err
	}
	defer f.Close()
	out, err := parseBench(f)
	if err != nil {
		return benchRun{}, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func run(args []string, out io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	cur, err := parseFile(cfg.current)
	if err != nil {
		return err
	}
	if cfg.writeJSON != "" {
		if err := writeJSONFile(cfg.writeJSON, cur.samples); err != nil {
			return err
		}
	}
	// The zero-alloc assertion is hardware-independent: it runs (and can
	// fail) before the baseline/cpu logic can demote anything.
	if cfg.zeroAlloc != nil {
		if err := assertZeroAlloc(cur, cfg.zeroAlloc, out); err != nil {
			return err
		}
	}
	if cfg.baseline == "" {
		fmt.Fprintf(out, "rws-benchgate: no baseline; parsed %d benchmarks from %s (commit a baseline to enable the gate)\n",
			len(cur.samples), cfg.current)
		names := make([]string, 0, len(cur.samples))
		for n := range cur.samples {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "  %-40s %12.1f ns/op (min of %d)\n", n, minOf(cur.samples[n]), len(cur.samples[n]))
		}
		return nil
	}
	base, err := parseFile(cfg.baseline)
	if err != nil {
		return err
	}
	// Cross-hardware guard: a ratio threshold only means something when
	// both runs came off the same silicon. A baseline recorded on a
	// different CPU model demotes the gate to an informational report
	// instead of flapping CI with hardware deltas (-ignore-cpu overrides
	// for runners that report cosmetically different strings).
	sameCPU := cfg.ignoreCPU || base.cpu == "" || cur.cpu == "" || base.cpu == cur.cpu
	rows, regressed, missing := compare(base.samples, cur.samples, cfg)
	fmt.Fprintf(out, "rws-benchgate: threshold %.2fx, gate %s\n", cfg.threshold, cfg.match)
	fmt.Fprintf(out, "%-40s %14s %14s %8s  %s\n", "BENCHMARK", "BASE ns/op", "CURRENT ns/op", "DELTA", "VERDICT")
	for _, r := range rows {
		delta := "-"
		if r.baseNs > 0 && r.curNs > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(r.curNs-r.baseNs)/r.baseNs)
		}
		fmt.Fprintf(out, "%-40s %14.1f %14.1f %8s  %s\n", r.name, r.baseNs, r.curNs, delta, r.verdict)
	}
	// A vanished gated benchmark is a structural failure, not a timing
	// one: it fails the build regardless of what hardware the run landed
	// on — demoting it with the threshold would let a rename disarm the
	// gate on every non-reference machine.
	if missing {
		return fmt.Errorf("gated benchmark missing from the current run (renamed or deleted hot-path benchmark disarms its gate)")
	}
	// So is an allocation regression: allocs/op is the same count on any
	// hardware, so it fails before the cpu guard can demote anything.
	if allocs := allocRegressions(base.allocs, cur.allocs); len(allocs) > 0 {
		return fmt.Errorf("allocs/op above the baseline: %s", strings.Join(allocs, "; "))
	}
	if !sameCPU {
		fmt.Fprintf(out, "rws-benchgate: baseline cpu %q != current cpu %q: hardware deltas would drown the %.2fx threshold, gate demoted to informational (regenerate the baseline on this machine, or pass -ignore-cpu)\n",
			base.cpu, cur.cpu, cfg.threshold)
		return nil
	}
	if regressed {
		return fmt.Errorf("benchmark regression past %.2fx on the gated hot paths", cfg.threshold)
	}
	return nil
}
