package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"rwskit/internal/browser"
	"rwskit/internal/core"
	"rwskit/internal/serve"
)

// perCall times fn over every item in repeated passes and returns the
// median per-call time of the passes in nanoseconds.
func perCall[T any](items []T, fn func(T)) float64 {
	if len(items) == 0 {
		return 0
	}
	var passes []float64
	start := time.Now()
	for len(passes) < 5 || (len(passes) < 31 && time.Since(start) < 200*time.Millisecond) {
		t := time.Now()
		for _, it := range items {
			fn(it)
		}
		passes = append(passes, float64(time.Since(t).Nanoseconds())/float64(len(items)))
	}
	return median(passes)
}

// msOf is the median wall time of reps calls of fn, in milliseconds.
func msOf(reps int, fn func()) float64 {
	var v []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		fn()
		v = append(v, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return median(v)
}

// directCalls times the serve, store, core and browser layers by calling
// their public functions over the workload's own queries and revisions.
func (b *bench) directCalls(n *node, m *metrics) error {
	snapOf := func(r *request) *serve.Snapshot {
		if r.rev < 0 {
			return n.st.Current()
		}
		s, _, err := n.st.ByHash(b.revs[r.rev].hash)
		if err != nil {
			return n.st.Current()
		}
		return s
	}
	var same, set, part, offPart []*request
	var hosts []string
	for _, r := range b.conns[0].pool {
		switch r.kind {
		case kSameSet:
			same = append(same, r)
		case kSet:
			set = append(set, r)
		case kPartition:
			part = append(part, r)
			if r.offList {
				offPart = append(offPart, r)
			}
		}
		hosts = append(hosts, r.hosts...)
	}
	m.add("snapshot.sameset_ns", perCall(same, func(r *request) { snapOf(r).SameSet(r.hosts[0], r.hosts[1]) }), "ns", len(same))
	m.add("snapshot.set_ns", perCall(set, func(r *request) { snapOf(r).Set(r.hosts[0]) }), "ns", len(set))
	m.add("snapshot.partition_ns", perCall(part, func(r *request) { snapOf(r).Partition("", r.hosts[0], r.hosts[1]) }), "ns", len(part))
	m.add("core.canonical_host_ns", perCall(hosts, func(h string) { core.CanonicalHost(h) }), "ns", len(hosts))

	// The simulator is timed on the off-list pairs that reach it; a
	// workload without any times it on its partition pairs.
	if len(offPart) == 0 {
		offPart = part
	}
	cur := b.revs[len(b.revs)-1]
	policy := browser.RWSPolicy{List: cur.list}
	m.add("browser.evaluate_ns", perCall(offPart, func(r *request) {
		browser.EvaluateFresh(policy, core.CanonicalHost(r.hosts[0]), core.CanonicalHost(r.hosts[1]))
	}), "ns", len(offPart))

	var specs []string
	for _, rev := range b.revs {
		specs = append(specs, rev.hash[:12], rev.asOf.Format(time.RFC3339))
	}
	m.add("store.resolve_ns", perCall(specs, func(s string) { n.st.Resolve(s) }), "ns", len(specs))

	// Parse, hash and diff over the last two revisions the node installed.
	last := b.lastRevision()
	prev, err := b.rs.build(last - 1)
	if err != nil {
		return err
	}
	lastRev, err := b.rs.build(last)
	if err != nil {
		return err
	}
	var parsed *core.List
	m.add("core.parse_ms", msOf(3, func() {
		parsed, err = core.ParseJSON(lastRev.body)
	}), "ms", 3)
	if err != nil {
		return fmt.Errorf("parsing revision %d: %w", last, err)
	}
	m.add("core.hash_ms", msOf(3, func() { parsed.Hash() }), "ms", 3)
	m.add("core.difflists_ms", msOf(3, func() { core.DiffLists(prev.list, lastRev.list) }), "ms", 3)
	return nil
}

// lastRevision is the index of the newest revision the node installed.
func (b *bench) lastRevision() int {
	last := len(b.revs) - 1
	for _, s := range b.swaps {
		last = max(last, s.rev)
	}
	return last
}

// runtimeMetrics reports the Go runtime and process layer over the
// measured phases.
func runtimeMetrics(m *metrics, gc0 uint32, cpu0 float64, wall time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.add("runtime.gc_cycles", float64(ms.NumGC-gc0), "count", 1)
	stats := debug.GCStats{PauseQuantiles: make([]time.Duration, 101)}
	debug.ReadGCStats(&stats)
	m.add("runtime.gc_pause_p99_us", float64(stats.PauseQuantiles[99].Nanoseconds())/1e3, "us", len(stats.Pause))
	m.add("process.cpu_util", (cpuSeconds()-cpu0)/(wall.Seconds()*float64(runtime.NumCPU())), "ratio", 1)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	m.add("runtime.heap_live_mb", float64(ms.HeapAlloc)/(1<<20), "MB", 1)
}
