package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"syscall"
	"time"
)

// rec is one request as a connection worker saw it. Times are nanoseconds
// since the run's epoch; in a closed loop intended equals sent.
type rec struct {
	id                   int64
	intended, sent, done int64
	req                  int32
	ok                   bool
	idle                 bool // the connection was free at the intended time
}

// conn is one keep-alive connection and the worker that drives it.
type conn struct {
	b    *bench
	id   int
	c    *client
	pool []*request
	next int
	seq  int64
	// kept samples the current stage's successful responses; samples
	// collects every finished stage's share for the oracle.
	kept    reservoir
	samples []sample
}

// samplePerStage is how many successful responses each connection keeps
// for the oracle from every stage. They are drawn uniformly over the
// stage, so the end of a long stage, and every stage after a busy one,
// is checked as much as its start.
const samplePerStage = 256

// sample is one response kept for the oracle.
type sample struct {
	req  *request
	etag string
	body []byte
}

// reservoir keeps a uniform random subset of at most samplePerStage of
// the responses offered to it (reservoir sampling), from a seeded RNG.
type reservoir struct {
	rng  *rand.Rand
	seen int64
	kept []sample
}

func (rv *reservoir) offer(r *request, etag, body []byte) {
	rv.seen++
	i := len(rv.kept)
	if i < samplePerStage {
		rv.kept = append(rv.kept, sample{})
	} else if j := rv.rng.Int63n(rv.seen); j < samplePerStage {
		i = int(j)
	} else {
		return
	}
	s := &rv.kept[i]
	s.req, s.etag, s.body = r, string(etag), append(s.body[:0], body...)
}

func (cn *conn) take() (int32, *request) {
	i := cn.next
	cn.next = (cn.next + 1) % len(cn.pool)
	return int32(i), cn.pool[i]
}

// do sends one request and reports whether it succeeded and when it
// completed. Every response is offered to the swap detector.
func (cn *conn) do(r *request) (id int64, ok bool, done int64) {
	if cn.b.tr != nil && cn.b.tr.on.Load() {
		cn.seq++
		id = int64(cn.id+1)<<40 | cn.seq
	}
	status, err := cn.c.get(r.path, id)
	done = cn.b.now()
	if sw := cn.b.watch.Load(); sw != nil && err == nil {
		sw.observe(cn.c.etag, done)
	}
	ok = err == nil && status >= 200 && status < 300
	if ok {
		cn.kept.offer(r, cn.c.etag, cn.c.body)
	}
	return id, ok, done
}

// stage is one load phase's raw outcome.
type stage struct {
	name    string
	offered float64 // req/s; 0 for a closed loop
	dur     time.Duration
	recs    [][]rec // per connection
	// deadline ends the stage (ns since the epoch). An open-loop worker
	// still sends arrivals due before it after it passes, up to
	// backlogCap; unsent counts the ones left over.
	deadline int64
	unsent   int
	// scheduled counts the open-loop arrivals due before the deadline.
	scheduled int
	// sampled counts the responses the stage kept for the oracle.
	sampled int
}

// backlogCap is how long after the deadline an open-loop worker keeps
// draining arrivals that were due before it.
const backlogCap = time.Second

// counts returns the requests sent and the ones that failed: a non-2xx
// status or a transport error.
func (s *stage) counts() (sent, failed int) {
	for _, rs := range s.recs {
		for _, r := range rs {
			sent++
			if !r.ok {
				failed++
			}
		}
	}
	return sent, failed
}

// achieved is requests completed successfully by the deadline per second
// of stage time.
func (s *stage) achieved() float64 {
	n := 0
	for _, rs := range s.recs {
		for _, r := range rs {
			if r.ok && r.done <= s.deadline {
				n++
			}
		}
	}
	return float64(n) / s.dur.Seconds()
}

// achievedFrac is the share of scheduled arrivals completed successfully,
// by the deadline or while the backlog due before it drained. Comparing
// with the seeded schedule rather than rate × duration keeps the Poisson
// count's own spread out of the criterion, and the drain keeps a stall in
// the stage's last moments from counting as lost throughput; a backlog
// that grows through the stage fails the stage through endLateness.
func (s *stage) achievedFrac() float64 {
	n := 0
	for _, rs := range s.recs {
		for _, r := range rs {
			if r.ok {
				n++
			}
		}
	}
	return float64(n) / float64(max(s.scheduled, 1))
}

// latency is the sorted time from intended send to completion of every
// successful request.
func (s *stage) latency() summary {
	var v []int64
	for _, rs := range s.recs {
		for _, r := range rs {
			if r.ok {
				v = append(v, r.done-r.intended)
			}
		}
	}
	return newSummary(v)
}

// latWindow is the window the fixed-rate stages' latency percentiles are
// taken over before the median across windows is reported.
const latWindow = time.Second

// windowed splits the stage's successful requests into latWindow windows
// by intended send time, takes quantile q in each window that holds
// enough samples for it, and returns the median of those window
// quantiles, the number of samples and the number of windows used. A
// collection or a swap that lands in one window then moves one of the
// values the median is taken over, not the whole stage's tail.
func (s *stage) windowed(q float64) (float64, int, int, error) {
	return windowedAll([]*stage{s}, q)
}

// windowedAll is windowed over the windows of several stages.
func windowedAll(sts []*stage, q float64) (float64, int, int, error) {
	var per []float64
	total, nw := 0, 0
	for _, s := range sts {
		p, n, w := s.windowQuantiles(q)
		per, total, nw = append(per, p...), total+n, nw+w
	}
	if 2*len(per) < nw {
		return 0, total, len(per), fmt.Errorf("stage %s: only %d of %d windows hold enough samples for p%g", sts[0].name, len(per), nw, q*100)
	}
	return median(per), total, len(per), nil
}

// windowQuantiles returns quantile q of every window that holds enough
// samples for it, the number of samples and the number of windows.
func (s *stage) windowQuantiles(q float64) (per []float64, total, nw int) {
	start := s.deadline - s.dur.Nanoseconds()
	nw = max(int(s.dur/latWindow), 1)
	buckets := make([][]int64, nw)
	for _, rs := range s.recs {
		for _, r := range rs {
			if !r.ok {
				continue
			}
			w := min(max(int((r.intended-start)/int64(latWindow)), 0), nw-1)
			buckets[w] = append(buckets[w], r.done-r.intended)
			total++
		}
	}
	for _, b := range buckets {
		if sm := newSummary(b); sm.supports(q) {
			per = append(per, sm.quantile(q))
		}
	}
	return per, total, nw
}

// queue is the sorted time from intended to actual send.
func (s *stage) queue() summary {
	var v []int64
	for _, rs := range s.recs {
		for _, r := range rs {
			v = append(v, r.sent-r.intended)
		}
	}
	return newSummary(v)
}

// lateness is the generator's own lateness: how late requests went out
// when their connection was free at the intended time.
func (s *stage) lateness() summary {
	var v []int64
	for _, rs := range s.recs {
		for _, r := range rs {
			if r.idle {
				v = append(v, r.sent-r.intended)
			}
		}
	}
	return newSummary(v)
}

// endLateness splits the stage into latWindow windows and takes, in each,
// the median send lateness of the requests due in its last tenth; it
// returns the median over the windows. A backlog that grows through the
// stage shows in every window, while one stall, such as a collection
// late in the stage, moves one window only.
func (s *stage) endLateness() float64 {
	start := s.deadline - s.dur.Nanoseconds()
	nw := max(int(s.dur/latWindow), 1)
	wlen := s.dur.Nanoseconds() / int64(nw)
	late := make([][]int64, nw)
	for _, rs := range s.recs {
		for _, r := range rs {
			off := r.intended - start
			w := off / max(wlen, 1)
			if w >= 0 && w < int64(nw) && off-w*wlen >= wlen*9/10 {
				late[w] = append(late[w], r.sent-r.intended)
			}
		}
	}
	var per []float64
	for _, v := range late {
		if len(v) > 0 {
			per = append(per, newSummary(v).quantile(0.5))
		}
	}
	return median(per)
}

// run drives every connection through fn in parallel and collects their
// records and their samples for the oracle.
func (b *bench) run(name string, offered float64, dur time.Duration, fn func(cn *conn, deadline int64) (recs []rec, unsent, scheduled int)) *stage {
	st := &stage{name: name, offered: offered, dur: dur, recs: make([][]rec, len(b.conns))}
	deadline := b.now() + dur.Nanoseconds()
	st.deadline = deadline
	var wg sync.WaitGroup
	unsent := make([]int, len(b.conns))
	scheduled := make([]int, len(b.conns))
	for i, cn := range b.conns {
		cn.kept = reservoir{rng: rand.New(rand.NewSource(stageSeed(b.seed, "sample-"+name, cn.id)))}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.recs[i], unsent[i], scheduled[i] = fn(cn, deadline)
		}()
	}
	wg.Wait()
	for i, cn := range b.conns {
		st.unsent += unsent[i]
		st.scheduled += scheduled[i]
		st.sampled += len(cn.kept.kept)
		cn.samples = append(cn.samples, cn.kept.kept...)
		cn.kept = reservoir{}
	}
	b.account(st)
	if b.gen != nil {
		b.countMix(st)
	}
	return st
}

// closedLoop sends requests back to back on every connection for dur.
func (b *bench) closedLoop(name string, dur time.Duration) *stage {
	return b.run(name, 0, dur, func(cn *conn, deadline int64) ([]rec, int, int) {
		recs := make([]rec, 0, 1<<15)
		for t := b.now(); t < deadline; t = b.now() {
			i, r := cn.take()
			id, ok, done := cn.do(r)
			recs = append(recs, rec{id: id, intended: t, sent: t, done: done, req: i, ok: ok, idle: true})
		}
		return recs, 0, len(recs)
	})
}

// arrivals returns one connection's seeded Poisson arrival offsets (ns)
// for rate req/s over dur. The same seed, stage and connection give the
// same schedule.
func arrivals(seed int64, tag string, connID int, rate float64, dur time.Duration) []int64 {
	rng := rand.New(rand.NewSource(stageSeed(seed, tag, connID)))
	mean := float64(time.Second) / rate
	var out []int64
	for t := rng.ExpFloat64() * mean; t < float64(dur); t += rng.ExpFloat64() * mean {
		out = append(out, int64(t))
	}
	return out
}

// stageSeed derives one connection's RNG seed for a stage from the run's
// seed.
func stageSeed(seed int64, tag string, connID int) int64 {
	h := seed*1_000_003 + int64(connID)*7919
	for _, c := range tag {
		h = h*31 + int64(c)
	}
	return h
}

// openLoop offers rate req/s, split evenly over the connections, on
// seeded Poisson schedules. Latency runs from each request's intended
// send time, so a stalled connection charges its wait to the requests
// queued behind it.
func (b *bench) openLoop(name string, rate float64, dur time.Duration) *stage {
	conns := len(b.conns)
	return b.run(name, rate, dur, func(cn *conn, deadline int64) ([]rec, int, int) {
		start := deadline - dur.Nanoseconds()
		sched := arrivals(b.seed, name, cn.id, rate/float64(conns), dur)
		recs := make([]rec, 0, len(sched))
		var prevDone int64
		for j, off := range sched {
			intended := start + off
			if b.now() >= deadline+backlogCap.Nanoseconds() {
				return recs, len(sched) - j, len(sched)
			}
			sleepUntil(b, intended)
			i, r := cn.take()
			sent := b.now()
			id, ok, done := cn.do(r)
			recs = append(recs, rec{id: id, intended: intended, sent: sent, done: done, req: i, ok: ok, idle: prevDone <= intended})
			prevDone = done
		}
		return recs, 0, len(sched)
	})
}

// sleepUntil waits for the run clock to reach t. Go timers wake up to a
// millisecond late on an idle process, which would make the generator,
// not the server, late; the last stretch is therefore a nanosleep with
// the thread's timer slack set to 1ns.
func sleepUntil(b *bench, t int64) {
	for {
		d := t - b.now()
		switch {
		case d <= 0:
			return
		case d > int64(3*time.Millisecond):
			time.Sleep(time.Duration(d) - 2*time.Millisecond)
		case d > int64(15*time.Microsecond):
			const prSetTimerslack = 29
			syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
			ts := syscall.NsecToTimespec(d - int64(5*time.Microsecond))
			syscall.Nanosleep(&ts, nil)
		default:
			for b.now() < t {
			}
			return
		}
	}
}

// outcome is an open-loop stage judged against the latency limit.
type outcome struct {
	offered, achieved float64
	frac              float64 // achieved share of the scheduled arrivals
	p99               float64 // median of the per-window p99s, ns
	failed            int
	endLate           float64 // ns
	genLateP99        float64 // ns
	valid             bool    // the generator kept to its schedule
	pass              bool
}

// genLateLimit is how late the generator may run at p99 before a stage
// is marked invalid rather than counted as server latency.
const genLateLimit = 500 * time.Microsecond

// backlogLimit is how late the last tenth of a stage's requests may go
// out, at the median, before the stage counts as building a backlog. A
// sustained rate leaves them tens of microseconds late; a stage at the
// knee had them 9–43 ms late while its p99 and achieved share still
// passed, and the search then jumped a whole step past the knee.
const backlogLimit = 2 * time.Millisecond

// judge decides whether an open-loop stage met the limit. Its p99 is the
// median of the stage's per-window p99s, as the fixed-rate latencies are,
// so one collection or one slow second of a shared machine does not
// decide the stage; sustained overload still fails it through the
// achieved share and the end backlog.
func judge(s *stage, limit time.Duration) outcome {
	_, failed := s.counts()
	o := outcome{offered: s.offered, achieved: s.achieved(), frac: s.achievedFrac(), failed: failed, endLate: s.endLateness()}
	p99, _, _, err := s.windowed(0.99)
	o.p99 = p99
	o.genLateP99 = s.lateness().quantile(0.99)
	o.valid = !(o.genLateP99 > float64(genLateLimit))
	o.pass = o.valid && failed == 0 && err == nil &&
		o.p99 <= float64(limit) && o.frac >= 0.99 && o.endLate <= float64(backlogLimit)
	return o
}

// search finds the highest offered rate whose stage meets the limit, one
// stage at a time, so that a run can spread its stages over the run
// instead of spending them in one block: from the start rate it steps up
// by step while stages pass (down while they fail), then bisects between
// the best pass and the lowest failure for the remaining stages. tried
// holds every outcome and best the index of the best pass, or -1 when
// none passed.
//
// A failure at the start rate is confirmed by running that stage once
// more. Two runs in twenty failed their first stage, well below the
// knee, because the shared machine stalled during it; the search then
// spent every stage below the start and reported about 25% less.
type search struct {
	step   float64
	stages int
	rate   float64
	lo, hi float64
	tried  []outcome
	best   int
}

func newSearch(start, step float64, stages int) *search {
	return &search{step: step, stages: stages, rate: start, hi: math.Inf(1), best: -1}
}

func (s *search) done() bool { return len(s.tried) >= s.stages }

// next is the offered rate of the next stage.
func (s *search) next() float64 { return s.rate }

// record takes the outcome of a stage run at next's rate.
func (s *search) record(o outcome) {
	s.tried = append(s.tried, o)
	if len(s.tried) == 1 && !o.pass && s.stages > 1 {
		return // confirm a failed start with one more stage at that rate
	}
	if o.pass {
		if s.best < 0 || o.offered > s.tried[s.best].offered {
			s.best = len(s.tried) - 1
		}
		s.lo = math.Max(s.lo, s.rate)
	} else {
		s.hi = math.Min(s.hi, s.rate)
	}
	switch {
	case math.IsInf(s.hi, 1):
		s.rate = s.lo * s.step
	case s.lo == 0:
		s.rate = s.hi / s.step
	default:
		s.rate = math.Sqrt(s.lo * s.hi)
	}
}
