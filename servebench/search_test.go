package main

import (
	"testing"
	"time"
)

// searchMaxRate runs a whole search against probe, one stage after the
// other, and returns every outcome and the index of the best pass.
func searchMaxRate(start, step float64, stages int, probe func(rate float64) outcome) ([]outcome, int) {
	s := newSearch(start, step, stages)
	for !s.done() {
		s.record(probe(s.next()))
	}
	return s.tried, s.best
}

func TestSearchMaxRateConfirmsAFailedStart(t *testing.T) {
	// One stall in the first stage must not send the search below the start.
	const knee = 47500.0
	curve := syntheticCurve(50000, 100*time.Microsecond, 2*time.Millisecond)
	calls := 0
	probe := func(rate float64) outcome {
		calls++
		if calls == 1 {
			return outcome{offered: rate, valid: true}
		}
		return curve(rate)
	}
	tried, best := searchMaxRate(knee*0.70, searchStep, searchStages, probe)
	if best < 0 || tried[best].offered > knee || tried[best].offered < knee/1.06 {
		t.Errorf("after a stalled first stage the search reports %+v, want within 6%% below %g", tried, knee)
	}
}

// syntheticCurve is an M/M/1-shaped latency curve: p99 grows without
// bound as the offered rate nears capacity.
func syntheticCurve(capacity float64, base, limit time.Duration) func(rate float64) outcome {
	return func(rate float64) outcome {
		p99 := float64(base) / (1 - rate/capacity)
		if rate >= capacity {
			p99 = 1e12
		}
		return outcome{offered: rate, achieved: rate, frac: 1, p99: p99, valid: true, pass: p99 <= float64(limit)}
	}
}

func TestSearchMaxRateFindsTheKnee(t *testing.T) {
	// p99 = 100µs/(1-r/50000) meets a 2ms limit up to r = 47500.
	const knee = 47500.0
	probe := syntheticCurve(50000, 100*time.Microsecond, 2*time.Millisecond)
	for _, start := range []float64{30000, 60000} {
		tried, best := searchMaxRate(start, 1.15, 8, probe)
		if len(tried) != 8 {
			t.Fatalf("start %g: ran %d stages, want 8", start, len(tried))
		}
		if best < 0 {
			t.Fatalf("start %g: no stage passed", start)
		}
		if got := tried[best].offered; got > knee || got < knee/1.03 {
			t.Errorf("start %g: best passing rate %g, want within 3%% below %g", start, got, knee)
		}
		for _, o := range tried {
			if o.pass && o.offered > tried[best].offered {
				t.Errorf("start %g: a passing stage at %g beats the reported %g", start, o.offered, tried[best].offered)
			}
		}
	}
}

func TestSearchMaxRateNothingPasses(t *testing.T) {
	probe := func(rate float64) outcome { return outcome{offered: rate} }
	tried, best := searchMaxRate(1000, 1.15, 4, probe)
	if best != -1 || len(tried) != 4 {
		t.Errorf("best = %d after %d stages, want -1 after 4", best, len(tried))
	}
	if tried[1].offered != tried[0].offered {
		t.Errorf("a failure at the start rate %g was not confirmed at that rate (then %g)", tried[0].offered, tried[1].offered)
	}
	for i := 2; i < len(tried); i++ {
		if tried[i].offered >= tried[i-1].offered {
			t.Errorf("stage %d offered %g after a failure at %g; want a lower rate", i, tried[i].offered, tried[i-1].offered)
		}
	}
}

// stageOf fabricates a one-connection open-loop stage of n requests, one
// per millisecond, with the given latency for each.
func stageOf(n int, lat func(i int) time.Duration) *stage {
	st := &stage{offered: 1000, dur: time.Duration(n) * time.Millisecond, scheduled: n, deadline: int64(n) * int64(time.Millisecond)}
	var rs []rec
	for i := 0; i < n; i++ {
		t := int64(i) * int64(time.Millisecond)
		rs = append(rs, rec{intended: t, sent: t, done: t + int64(lat(i)), ok: true, idle: true})
	}
	st.recs = [][]rec{rs}
	return st
}

func TestJudge(t *testing.T) {
	limit := 2 * time.Millisecond
	fast := stageOf(2000, func(int) time.Duration { return 100 * time.Microsecond })
	if o := judge(fast, limit); !o.pass {
		t.Errorf("a stage at 100µs failed: %+v", o)
	}
	slowTail := stageOf(2000, func(i int) time.Duration {
		if i%50 == 0 {
			return 5 * time.Millisecond // 2% of requests over the limit
		}
		return 100 * time.Microsecond
	})
	if o := judge(slowTail, limit); o.pass {
		t.Errorf("a stage with a 5ms p99 passed: %+v", o)
	}
	short := stageOf(2000, func(int) time.Duration { return 100 * time.Microsecond })
	short.scheduled = 2100 // 100 arrivals never sent
	if o := judge(short, limit); o.pass {
		t.Errorf("a stage that completed %.3f of its schedule passed", o.frac)
	}
	backlog := stageOf(3000, func(int) time.Duration { return 100 * time.Microsecond })
	for i := 0; i < 3000; i++ {
		r := &backlog.recs[0][i]
		late := int64(i) * int64(5*time.Microsecond) // up to 15ms late by the end
		r.sent += late
		r.done += late
		r.idle = false
	}
	if o := judge(backlog, 50*time.Millisecond); o.pass {
		t.Errorf("a stage whose send backlog grew throughout passed: %+v", o)
	}
	// One 100ms stall in the stage's last tenth is not a growing backlog:
	// the requests due in it go out late, then the backlog drains.
	stall := stageOf(3000, func(int) time.Duration { return 100 * time.Microsecond })
	for i := 2800; i < 2900; i++ {
		r := &stall.recs[0][i]
		late := int64(2900-i) * int64(time.Millisecond)
		r.sent += late
		r.done += late
		r.idle = false
	}
	if o := judge(stall, 150*time.Millisecond); !o.pass {
		t.Errorf("a stage with one late stall failed: %+v", o)
	}
	failing := stageOf(2000, func(int) time.Duration { return 100 * time.Microsecond })
	failing.recs[0][7].ok = false
	if o := judge(failing, limit); o.pass || o.failed != 1 {
		t.Errorf("a stage with a failed request passed: %+v", o)
	}
}

// TestSearchBisectsFromTheHighRate runs the configured search from each
// workload's frozen high rate against a curve whose knee sits where the
// rates were frozen from (high rate ÷ 0.70): the search must overshoot
// within three stages, bisect for at least three, and land within 3% below
// the knee.
func TestSearchBisectsFromTheHighRate(t *testing.T) {
	for name, w := range workloads {
		knee := w.highRate / 0.70
		probe := syntheticCurve(knee/0.95, 100*time.Microsecond, 2*time.Millisecond)
		tried, best := searchMaxRate(w.highRate, searchStep, searchStages, probe)
		firstFail := -1
		for i, o := range tried {
			if !o.pass {
				firstFail = i
				break
			}
		}
		if firstFail < 0 || searchStages-1-firstFail < 3 {
			t.Errorf("%s: first failing stage is %d of %d; want at least 3 bisection stages after it", name, firstFail, searchStages)
		}
		if best < 0 || tried[best].offered > knee || tried[best].offered < knee/1.03 {
			t.Errorf("%s: search reports %+v, want within 3%% below %.0f", name, tried, knee)
		}
	}
}
