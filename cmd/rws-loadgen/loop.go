package main

import (
	"context"
	"errors"
	"sync"
	"time"
)

// One worker loop serves both modes. In a closed loop (interval 0) a
// worker sends its next request as soon as the last one completes, and
// latency runs from the actual send. In an open loop the requests follow
// a rate-driven arrival schedule that does not wait for completions, so
// slow responses cannot throttle the offered load the way a closed loop
// silently does (coordinated omission). Latency is then measured from
// each request's *intended* send time: if the server (or a backed-up
// worker) delays a request past its slot, the queueing delay counts
// against it. The schedule is split across workers wrk2-style: each
// worker owns every Nth arrival, with interval workers/rate, either
// fixed (staggered phases, deterministic spacing) or Poisson
// (exponential gaps, the memoryless arrivals real traffic approximates).

// targetTally is one worker's tally for one target. The latency
// histogram makes quantiles free to merge across workers and targets.
type targetTally struct {
	requests uint64
	errors   uint64
	hist     latHist
}

// workerResult is one worker's tally.
type workerResult struct {
	requests [numScenarios]uint64
	errors   [numScenarios]uint64
	tgt      []targetTally // indexed like cfg.targets
}

// Run generates load for cfg.duration, as a closed loop at rate 0 and
// otherwise as an open loop offering rate req/s across all workers, and
// folds the workers' tallies into one report.
func (g *generator) Run(ctx context.Context, rate float64) (Report, error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.duration)
	defer cancel()
	rep := Report{
		Target:  g.cfg.target,
		Workers: g.cfg.workers,
		Mix:     g.cfg.mix,
		Seed:    g.cfg.seed,
		Mode:    "closed",
	}
	var interval time.Duration
	if rate > 0 {
		rep.Mode, rep.Arrival, rep.OfferedRate = "open", g.cfg.arrival, rate
		interval = max(time.Duration(float64(g.cfg.workers)/rate*float64(time.Second)), 1)
	}
	results := make([]workerResult, g.cfg.workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = g.worker(ctx, w, interval, start)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	rep.ElapsedMillis = elapsed.Milliseconds()

	var scen [numScenarios]ScenarioStats
	tgts := make([]TargetStats, len(g.cfg.targets))
	tgtHists := make([]latHist, len(g.cfg.targets))
	for _, res := range results {
		for id := range scen {
			scen[id].Requests += res.requests[id]
			scen[id].Errors += res.errors[id]
		}
		for ti := range res.tgt {
			tgts[ti].Requests += res.tgt[ti].requests
			tgts[ti].Errors += res.tgt[ti].errors
			tgtHists[ti].merge(&res.tgt[ti].hist)
		}
	}
	for id := range scen {
		rep.Requests += scen[id].Requests
		rep.Errors += scen[id].Errors
		if g.cfg.weights[id] > 0 {
			scen[id].Scenario = scenarioNames[id]
			rep.Scenarios = append(rep.Scenarios, scen[id])
		}
	}
	if rep.Requests == 0 {
		return rep, errors.New("no requests completed (is the target up?)")
	}
	secs := elapsed.Seconds()
	var hist latHist
	for ti, t := range g.cfg.targets {
		hist.merge(&tgtHists[ti])
		tgts[ti].Target, tgts[ti].Weight = t.url, t.weight
		tgts[ti].ReqPerSec = float64(tgts[ti].Requests) / secs
		tgts[ti].P50Micros = tgtHists[ti].quantile(0.50).Microseconds()
		tgts[ti].P99Micros = tgtHists[ti].quantile(0.99).Microseconds()
	}
	// Single-target runs omit the per-target block.
	if len(tgts) > 1 {
		rep.Targets = tgts
	}
	rep.ReqPerSec = float64(rep.Requests) / secs
	rep.P50Micros = hist.quantile(0.50).Microseconds()
	rep.P90Micros = hist.quantile(0.90).Microseconds()
	rep.P95Micros = hist.quantile(0.95).Microseconds()
	rep.P99Micros = hist.quantile(0.99).Microseconds()
	rep.P999Micros = hist.quantile(0.999).Microseconds()
	rep.MaxMicros = hist.max.Microseconds()
	return rep, nil
}

// worker issues requests until ctx expires: back-to-back when interval
// is 0, otherwise on its share of the arrival schedule that starts at
// start. An open-loop worker never skips a slot: if it falls behind, it
// fires the overdue arrivals back-to-back and their latency includes the
// time spent waiting for their turn.
//
// Each worker seeds its own PRNG from (seed, worker id), so the request
// sequence is deterministic per run regardless of scheduling; the target
// ring is walked by a counter (not the PRNG) from the worker's own
// phase, so adding targets never perturbs the scenario draw.
func (g *generator) worker(ctx context.Context, id int, interval time.Duration, start time.Time) workerResult {
	rng := newWorkerRNG(g.cfg.seed, id)
	clients := make([]*fastClient, len(g.cfg.targets))
	for ti, t := range g.cfg.targets {
		clients[ti] = newFastClient(t, g.cfg.timeout)
		defer clients[ti].close()
	}
	res := workerResult{tgt: make([]targetTally, len(g.cfg.targets))}
	poisson := g.cfg.arrival == "poisson"
	// gap is the wait from one arrival to the next: exponential for
	// Poisson arrivals, constant otherwise.
	gap := func() time.Duration {
		if poisson {
			return time.Duration(rng.ExpFloat64() * float64(interval))
		}
		return interval
	}
	// next is the intended send time of the next request. Fixed arrivals
	// stagger worker phases so the aggregate stream is evenly spaced at
	// 1/rate; Poisson draws its first gap.
	var next time.Time
	if interval > 0 {
		if poisson {
			next = start.Add(gap())
		} else {
			next = start.Add(interval * time.Duration(id) / time.Duration(g.cfg.workers))
		}
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for n := 0; ctx.Err() == nil; n++ {
		if interval > 0 {
			if wait := time.Until(next); wait > 0 {
				timer.Reset(wait)
				select {
				case <-ctx.Done():
					return res
				case <-timer.C:
				}
			}
		}
		sc := g.pick[rng.Intn(len(g.pick))]
		ti := g.targetPick[(id+n)%len(g.targetPick)]
		sent := next
		if interval == 0 {
			sent = time.Now()
		}
		status, err := clients[ti].get(g.buildPath(sc, rng))
		d := time.Since(sent)
		res.requests[sc]++
		t := &res.tgt[ti]
		t.requests++
		t.hist.record(d)
		if err != nil || status >= 300 {
			res.errors[sc]++
			t.errors++
		}
		if interval > 0 {
			next = next.Add(gap())
		}
	}
	return res
}
