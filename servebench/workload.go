package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"strings"
	"time"

	"rwskit/internal/amplify"
	"rwskit/internal/core"
)

// workload is one benchmark scenario: the revisions its origin publishes,
// the request mix its readers send, and the frozen open-loop rates.
type workload struct {
	name string
	// lowRate and highRate are the open-loop offered rates in req/s, about
	// 25% and 70% of the workload's max_rate_rps on the reference machine.
	// They are frozen numbers, never re-derived per run.
	lowRate, highRate float64
	// preload is how many revisions setup installs: revision 0 at boot,
	// the rest as swaps through the watcher.
	preload int
	// churn runs swaps through further revisions beside the low-rate reads.
	churn bool
	// phases splits the seconds the rate search leaves between the
	// closed loop and the high- and low-rate stages.
	phases phaseSplit
	// mix shapes the requests.
	mix mixSpec
}

type phaseSplit struct{ closed, high, low float64 }

// mixSpec is a request mix: the rws-loadgen default scenario weights
// (sameset=4,set=3,partition=2,batch=1, batches of 8 pairs, half of the
// pairs same-set) plus the shares of requests that leave the prebaked
// path.
type mixSpec struct {
	pinned   float64 // share pinned to a retained earlier revision
	offList  float64 // share with an off-list host
	nonCanon float64 // share with a non-canonical host spelling
	// edge is the share of hosts drawn from the sets a sliding window adds
	// or removes; the rest come from the stable core. Zero draws from the
	// whole current revision.
	edge float64
}

// The mix's scenario weights and batch size, as in rws-loadgen.
const batchPairs = 8

type kind uint8

const (
	kSameSet kind = iota
	kSet
	kPartition
	kBatch
)

var kindPick = []kind{kSameSet, kSameSet, kSameSet, kSameSet, kSet, kSet, kSet, kPartition, kPartition, kBatch}

// The rates are 25% and 70% of the median max_rate_rps of ten runs
// (seeds 301–310) on a 2-vCPU shared Intel Xeon VM: 44213 req/s on
// read_wide and 51398 req/s on swap_churn (SPREAD.md).
var workloads = map[string]workload{
	// A 10⁴-set amplified list plus two earlier retained revisions,
	// hosts uniform over all sets: pinned, off-list and non-canonical
	// requests leave the prebaked path.
	"read_wide": {
		name: "read_wide", lowRate: 11000, highRate: 31000,
		preload: 3,
		phases:  phaseSplit{closed: 0.5, high: 0.15, low: 0.35},
		mix:     mixSpec{pinned: 1.0 / 3, offList: 0.2, nonCanon: 0.25},
	},
	// A 10⁴-set sliding window over one amplified list, k sets added and
	// removed per revision, one swap a second beside low-rate reads.
	"swap_churn": {
		name: "swap_churn", lowRate: 12800, highRate: 36000,
		preload: 1, churn: true,
		phases: phaseSplit{closed: 0.2, high: 0.1, low: 0.7},
		mix:    mixSpec{edge: 0.2},
	},
}

// Sliding-window shapes. read_wide's 10⁴ sets (≈4·10⁴ hosts) put the
// host index well beyond a core's L2; swap_churn's revisions are 10⁴ sets
// with a 0.5% add-and-remove diff.
const (
	wideSets, wideStep   = 10000, 100
	churnSets, churnStep = 10000, 50
	churnRevisions       = 150
	// churnEdgeRevisions bounds the edge reads draw from to the sets a
	// run's swaps reach.
	churnEdgeRevisions = 40
)

// revisionBase is the Last-Modified time of revision 0; revision i is
// published i hours later, so as_of= can name each revision.
var revisionBase = time.Date(2024, 3, 26, 0, 0, 0, 0, time.UTC)

// revision is one list revision the origin can publish.
type revision struct {
	idx  int
	list *core.List
	hash string
	body []byte
	asOf time.Time
}

// revisionSet derives revisions from one pool of sets as a sliding
// window: revision i is sets [i·step, i·step+size).
type revisionSet struct {
	pool     []*core.Set
	setJSON  [][]byte
	size     int
	step     int
	maxCount int
}

func (rs *revisionSet) sets(i int) []*core.Set {
	lo, hi := rs.window(i)
	return rs.pool[lo:hi]
}

// window returns the pool index range of revision i.
func (rs *revisionSet) window(i int) (lo, hi int) {
	return i * rs.step, i*rs.step + rs.size
}

// build assembles revision i: its list, content hash and the body the
// origin serves, concatenated from per-set JSON in the upstream schema.
func (rs *revisionSet) build(i int) (*revision, error) {
	if i >= rs.maxCount {
		return nil, fmt.Errorf("revision %d beyond the %d generated", i, rs.maxCount)
	}
	sets := rs.sets(i)
	list, err := core.NewList(sets)
	if err != nil {
		return nil, err
	}
	lo, hi := rs.window(i)
	n := len(`{"sets":[]}`)
	for _, b := range rs.setJSON[lo:hi] {
		n += len(b) + 1
	}
	body := make([]byte, 0, n)
	body = append(body, `{"sets":[`...)
	for j, b := range rs.setJSON[lo:hi] {
		if j > 0 {
			body = append(body, ',')
		}
		body = append(body, b...)
	}
	body = append(body, "]}"...)
	return &revision{idx: i, list: list, hash: list.Hash(), body: body, asOf: revisionBase.Add(time.Duration(i) * time.Hour)}, nil
}

// newRevisionSet generates the workload's pool of sets from the seed.
func newRevisionSet(w workload, seed int64) (*revisionSet, error) {
	rs := &revisionSet{}
	switch w.name {
	case "read_wide":
		rs.size, rs.step, rs.maxCount = wideSets, wideStep, w.preload
	case "swap_churn":
		rs.size, rs.step, rs.maxCount = churnSets, churnStep, churnRevisions
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	list, err := amplify.Generate(amplify.Config{Sets: rs.size + (rs.maxCount-1)*rs.step, Seed: seed})
	if err != nil {
		return nil, err
	}
	rs.pool = list.Sets()
	rs.setJSON = make([][]byte, len(rs.pool))
	for i, s := range rs.pool {
		b, err := core.MarshalSetJSON(s)
		if err != nil {
			return nil, err
		}
		rs.setJSON[i] = b
	}
	return rs, nil
}

// request is one pre-generated read.
type request struct {
	path string
	kind kind
	// rev is the revision a pinned request names, -1 for the current one.
	rev int
	// hosts are the host parameters as sent, before URL escaping: a and
	// b, site, top and embedded, or the batch pairs flattened.
	hosts []string
	// Input properties for the workload report.
	fast     bool // the shape the handlers answer from prebaked bytes
	offList  bool
	nonCanon bool
	samePair int // pairs drawn from one set
	pairs    int
}

// generator draws requests for one workload.
type generator struct {
	w     workload
	rs    *revisionSet
	revs  []*revision // revisions known when requests are drawn
	cur   *revision   // the revision unpinned requests target
	rng   *rand.Rand
	multi [][]string // sets (members) with at least two members
	sets  [][]string // member lists of the drawable sets
	core  [][]string // swap_churn: sets present in every revision
	edge  [][]string // swap_churn: sets some revision adds or removes
	off   int
}

func newGenerator(w workload, rs *revisionSet, revs []*revision, seed int64) *generator {
	g := &generator{w: w, rs: rs, revs: revs, cur: revs[len(revs)-1], rng: rand.New(rand.NewSource(seed))}
	members := func(s *core.Set) []string { return s.Sites() }
	if w.mix.edge > 0 {
		// The edge is what the first churnEdgeRevisions revisions remove
		// from the front of the window and add at its back.
		reach := churnEdgeRevisions * rs.step
		for i, s := range rs.pool {
			switch {
			case i < reach || (i >= rs.size && i < rs.size+reach):
				g.edge = append(g.edge, members(s))
			case i < rs.size:
				g.core = append(g.core, members(s))
			}
		}
		return g
	}
	for _, s := range g.cur.list.Sets() {
		m := members(s)
		g.sets = append(g.sets, m)
		if len(m) >= 2 {
			g.multi = append(g.multi, m)
		}
	}
	return g
}

// pickSet draws a member list: for sliding windows from the edge or the
// stable core, otherwise uniformly over the sets.
func (g *generator) pickSet(needTwo bool) []string {
	for {
		var m []string
		switch {
		case g.w.mix.edge > 0 && g.rng.Float64() < g.w.mix.edge:
			m = g.edge[g.rng.Intn(len(g.edge))]
		case g.w.mix.edge > 0:
			m = g.core[g.rng.Intn(len(g.core))]
		case needTwo:
			m = g.multi[g.rng.Intn(len(g.multi))]
		default:
			m = g.sets[g.rng.Intn(len(g.sets))]
		}
		if !needTwo || len(m) >= 2 {
			return m
		}
	}
}

func (g *generator) host() string {
	m := g.pickSet(false)
	return m[g.rng.Intn(len(m))]
}

// pair draws two distinct hosts: half the time two members of one set,
// half the time two independent draws.
func (g *generator) pair() (a, b string, same bool) {
	if g.rng.Intn(2) == 0 {
		m := g.pickSet(true)
		i := g.rng.Intn(len(m))
		j := g.rng.Intn(len(m) - 1)
		if j >= i {
			j++
		}
		return m[i], m[j], true
	}
	for {
		a, b = g.host(), g.host()
		if a != b {
			return a, b, false
		}
	}
}

// spell rewrites a host in one of the non-canonical spellings the server
// accepts: a scheme, an explicit :443, upper case, or a trailing dot.
func spell(rng *rand.Rand, host string) string {
	switch rng.Intn(4) {
	case 0:
		return "https://" + host
	case 1:
		return host + ":443"
	case 2:
		return strings.ToUpper(host)
	default:
		return host + "."
	}
}

// next draws one request.
func (g *generator) next() *request {
	r := &request{kind: kindPick[g.rng.Intn(len(kindPick))], rev: -1}
	if g.w.mix.pinned > 0 && g.rng.Float64() < g.w.mix.pinned {
		r.rev = g.rng.Intn(len(g.revs) - 1)
	}
	switch r.kind {
	case kSameSet, kPartition:
		a, b, same := g.pair()
		r.hosts = []string{a, b}
		r.pairs = 1
		if same {
			r.samePair = 1
		}
	case kSet:
		r.hosts = []string{g.host()}
	case kBatch:
		for i := 0; i < batchPairs; i++ {
			a, b, same := g.pair()
			r.hosts = append(r.hosts, a, b)
			r.pairs++
			if same {
				r.samePair++
			}
		}
	}
	if g.w.mix.offList > 0 && g.rng.Float64() < g.w.mix.offList {
		g.off++
		r.hosts[g.rng.Intn(len(r.hosts))] = fmt.Sprintf("unlisted%d-bench.com", g.off)
		r.offList = true
	}
	if g.w.mix.nonCanon > 0 && g.rng.Float64() < g.w.mix.nonCanon {
		i := g.rng.Intn(len(r.hosts))
		r.hosts[i] = spell(g.rng, r.hosts[i])
		r.nonCanon = true
	}
	g.render(r)
	return r
}

// render builds the request path and predicts whether the handlers'
// prebaked path answers it: an unpinned sameset, set or partition query
// whose values need no unescaping, where a partition pair must be two
// list members or one host twice.
func (g *generator) render(r *request) {
	q := func(s string) string { return url.QueryEscape(s) }
	var path string
	switch r.kind {
	case kSameSet:
		path = "/v1/sameset?a=" + q(r.hosts[0]) + "&b=" + q(r.hosts[1])
	case kSet:
		path = "/v1/set?site=" + q(r.hosts[0])
	case kPartition:
		path = "/v1/partition?top=" + q(r.hosts[0]) + "&embedded=" + q(r.hosts[1])
	case kBatch:
		var sb strings.Builder
		for i := 0; i < len(r.hosts); i += 2 {
			if i > 0 {
				sb.WriteByte(';')
			}
			sb.WriteString(r.hosts[i] + "," + r.hosts[i+1])
		}
		path = "/v1/sameset?pairs=" + q(sb.String())
	}
	clean := !strings.ContainsAny(path, "%+")
	if r.rev >= 0 {
		rv := g.revs[r.rev]
		if g.rng.Intn(2) == 0 {
			path += "&version=" + rv.hash[:12]
		} else {
			path += "&as_of=" + q(rv.asOf.Format(time.RFC3339))
		}
	}
	r.path = path
	r.fast = clean && r.rev < 0 && r.kind != kBatch
	if r.fast && r.kind == kPartition {
		ct, ce := core.CanonicalHost(r.hosts[0]), core.CanonicalHost(r.hosts[1])
		_, _, tok := g.cur.list.FindSet(ct)
		_, _, eok := g.cur.list.FindSet(ce)
		r.fast = ct == ce || (tok && eok)
	}
}

// pool draws n requests.
func (g *generator) pool(n int) []*request {
	out := make([]*request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}
