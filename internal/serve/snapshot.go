package serve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rwskit/internal/browser"
	"rwskit/internal/core"
)

// policyID indexes the vendor policies the serve layer knows about.
type policyID int

// The vendor policies, in table order.
const (
	policyRWS policyID = iota
	policyStrict
	policyPrompt
	policyLegacy
	numPolicies
)

// policyFor maps the policy query parameter to a table index. The
// prompt-based policies are modelled with a declining user: the verdict
// reports what happens with no user opt-in, which is the privacy-relevant
// default the paper compares vendors on.
//
//rws:hotpath
func policyFor(name string) (policyID, error) {
	switch name {
	case "", "rws", "chrome":
		return policyRWS, nil
	case "strict", "brave":
		return policyStrict, nil
	case "prompt", "firefox", "safari":
		return policyPrompt, nil
	case "legacy", "unpartitioned":
		return policyLegacy, nil
	default:
		// Unknown-policy requests leave the hot path: a 400 may allocate.
		return 0, fmt.Errorf("unknown policy %q (want rws, strict, prompt, or legacy)", name) //rws:coldpath
	}
}

// policyInfo is the precomputed per-policy metadata plus the live policy
// value used when a query falls off the precomputed plane.
type policyInfo struct {
	name               string
	partitionByDefault bool
	live               browser.Policy
}

// verdict is one precomputed partition outcome. filled distinguishes a
// computed cell from a role combination the list never produces.
type verdict struct {
	decision browser.Decision
	granted  bool
	filled   bool
}

// hostEntry is the precomputed membership record for one canonical host.
// setIdx indexes the snapshot's set-order tables (respMembers).
type hostEntry struct {
	set    *core.Set
	setIdx int32
	role   core.Role
}

// numRoles sizes the verdict table's role axes (primary, associated,
// service, cctld).
const numRoles = 4

// SnapshotOptions configures BuildSnapshot. The zero value builds with
// no memory budget.
type SnapshotOptions struct {
	// MemoryBudget caps the estimated bytes of the snapshot's derived
	// tables (host index, prebaked response bytes). 0 means
	// unlimited. It is fit or fail: a snapshot whose estimate exceeds the
	// budget is not built, and BuildSnapshot errors.
	MemoryBudget int64
}

// BuildInfo records how a snapshot was constructed — the wall-clock
// build time and the memory estimate. Exposed via /v1/metrics.
type BuildInfo struct {
	// BuildNanos is the wall-clock construction time in nanoseconds. It
	// includes hashing the list only when the builder was not handed the
	// hash (BuildSnapshot, or AddList with an empty Version.Hash).
	BuildNanos int64 `json:"build_nanos"`
	// EstimatedBytes is the estimated footprint of the derived tables.
	EstimatedBytes int64 `json:"estimated_bytes"`
	// MemoryBudget echoes the configured budget (0 = unlimited).
	MemoryBudget int64 `json:"memory_budget,omitempty"`
}

// Snapshot is the precomputed, immutable query plane the server answers
// from. BuildSnapshot derives everything the hot path needs from a
// *core.List once:
//
//   - a normalized host index (every member keyed by canonical host),
//   - composition statistics,
//   - a per-policy partition-verdict table over (topRole, embRole,
//     sameSet), so /v1/partition for list members is a table lookup
//     instead of a browser build + visit + embed per request,
//   - the list's content hash,
//   - the prebaked response bytes every answer is assembled from
//     (respbake.go).
//
// A Snapshot's query plane is never mutated after construction returns,
// so any number of request goroutines may read it without locks;
// Store.AddList installs a fresh one atomically. The one mutable field is
// the atomic requests counter, which feeds the per-version hit metrics.
type Snapshot struct {
	list *core.List
	hash string

	// etag is the strong HTTP validator derived from the content hash
	// (`"<hash>"`), and etagHeader is the same value pre-wrapped as a
	// one-element header slice so the hot path installs it with a single
	// map assignment (w.Header()["Etag"] = snap.etagHeader) — no
	// per-request slice allocation.
	etag       string
	etagHeader []string

	// requests counts the queries resolved to this snapshot under any
	// version spelling (current, version=, as_of=, diff/churn endpoints).
	// Metrics-only; incremented lock-free on the request path.
	requests atomic.Uint64

	// sets is list.Sets(), the set-index space hostEntry.setIdx and
	// respMembers are keyed by; hosts is the host index.
	sets  []*core.Set
	hosts map[string]hostEntry

	// The prebaked response plane (respbake.go): exact compact-JSON wire
	// bytes for the enumerable answers, assembled into pooled buffers by
	// every hot handler. respMembers is the encoded /v1/set members array
	// per set index — the one stored form of a set's members.
	respMembers [][]byte
	// respPartHead opens a PartitionResponse per policy; the tails close
	// it per verdict shape (same-set cell, cross-set, same-host on/off
	// list). respStatsPrefix is the stats body up to the live counters.
	respPartHead      [numPolicies][]byte
	respPartSame      [numPolicies][numRoles][numRoles][]byte
	respPartCross     [numPolicies][]byte
	respPartHostSame  [numPolicies][]byte
	respPartHostCross [numPolicies][]byte
	respStatsPrefix   []byte
	// respList is the canonical compact list JSON (/v1/list's body, the
	// replication export followers poll), baked once so the leader serves
	// its own list without re-marshalling per fetch.
	respList []byte

	info BuildInfo

	policies [numPolicies]policyInfo
	// sameSet holds the verdicts for same-set pairs, indexed by
	// [policy][topRole][embRole]; cross holds the (role-independent)
	// verdict for pairs that are not in the same set. Policies only
	// consult roles inside their same-set branch, which is why one cross
	// cell per policy suffices; TestPartitionTableMatchesLive holds the
	// tables to the live simulation.
	sameSet [numPolicies][numRoles][numRoles]verdict
	cross   [numPolicies]verdict
}

// BuildSnapshot precomputes the query plane for list under opts, with
// one construction worker per GOMAXPROCS, clamped to [1, sets].
func BuildSnapshot(list *core.List, opts SnapshotOptions) (*Snapshot, error) {
	return buildSnapshot(list, "", runtime.GOMAXPROCS(0), opts.MemoryBudget)
}

// buildSnapshot is BuildSnapshot with an explicit worker count and the
// list's content hash, computed here only when hash is empty.
func buildSnapshot(list *core.List, hash string, workers int, budget int64) (*Snapshot, error) {
	start := time.Now()
	if hash == "" {
		hash = list.Hash()
	}
	workers = max(1, min(workers, list.NumSets()))
	s := newSnapshot(list, hash)
	return s.finish(start, s.buildParallel(workers), budget)
}

// newSnapshot allocates a snapshot of list, whose content hash is hash,
// with its identity, policies and empty tables, ready for a build pass
// to fill.
func newSnapshot(list *core.List, hash string) *Snapshot {
	s := &Snapshot{
		list:        list,
		hash:        hash,
		etag:        `"` + hash + `"`,
		sets:        list.Sets(),
		hosts:       make(map[string]hostEntry, list.NumSites()),
		respMembers: make([][]byte, list.NumSets()),
	}
	s.etagHeader = []string{s.etag}
	s.policies = [numPolicies]policyInfo{
		policyRWS:    {live: browser.RWSPolicy{List: list}},
		policyStrict: {live: browser.StrictPolicy{}},
		policyPrompt: {live: browser.PromptPolicy{}},
		policyLegacy: {live: browser.LegacyPolicy{}},
	}
	for pid := range s.policies {
		info := &s.policies[pid]
		info.name = info.live.Name()
		info.partitionByDefault = info.live.PartitionByDefault()
	}
	return s
}

// finish bakes the remaining response bytes over a filled build pass and
// holds the total estimate to the budget — fit or fail, no degraded
// snapshot. tableBytes is the build pass's estimate of the host index
// and member fragments.
func (s *Snapshot) finish(start time.Time, tableBytes, budget int64) (*Snapshot, error) {
	respBytes, err := s.bakeResponses()
	if err != nil {
		return nil, err
	}
	estimated := tableBytes + respBytes
	if budget > 0 && estimated > budget {
		return nil, fmt.Errorf("serve: snapshot needs an estimated %d bytes; memory budget is %d", estimated, budget)
	}
	s.info.EstimatedBytes = estimated
	s.info.MemoryBudget = budget
	s.info.BuildNanos = time.Since(start).Nanoseconds()
	return s, nil
}

// prebakeMembers builds the /v1/set members of one set as response
// structs, for the typed Snapshot.Set.
func prebakeMembers(set *core.Set) []SetMember {
	ms := set.Members()
	pre := make([]SetMember, len(ms))
	for i, m := range ms {
		pre[i] = SetMember{Site: m.Site, Role: m.Role.String(), AliasOf: m.AliasOf}
	}
	return pre
}

// lookup resolves a canonical host against the host index.
//
//rws:hotpath
//rws:allocfree
func (s *Snapshot) lookup(host string) (hostEntry, bool) {
	e, ok := s.hosts[host]
	return e, ok
}

// hostKV is one host-index entry a phase-A worker emits.
type hostKV struct {
	host string
	e    hostEntry
}

// repPair is a worker's first member pair exhibiting a (topRole, embRole)
// combination: the candidate representative for that verdict cell.
type repPair struct {
	top, emb string
	filled   bool
}

// workerOut is everything one phase-A worker produces from its
// contiguous set range, merged deterministically in phase B.
type workerOut struct {
	hosts []hostKV
	reps  [numRoles][numRoles]repPair
	bytes int64
}

// buildParallel partitions the sets across `workers` goroutines. Each
// worker owns a contiguous set range: it encodes member fragments
// (written to disjoint indices of s.respMembers, race-free), emits its
// host-index entries, and records its first member pair per (topRole,
// embRole) combination. Phase B then fills the one host index from the
// workers' outputs in worker order and merges the verdict
// representatives by taking the first worker's pair — worker ranges are
// ordered, so that is exactly the globally-first pair the serial path
// would have evaluated. Each verdict cell then gets one fresh-profile
// evaluation per policy, identical to the serial result. It returns the
// estimated bytes of the host index and member fragments.
func (s *Snapshot) buildParallel(workers int) (tableBytes int64) {
	outs := make([]*workerOut, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(s.sets) / workers
		hi := (w + 1) * len(s.sets) / workers
		out := &workerOut{}
		outs[w] = out
		wg.Add(1)
		go func(lo, hi int, out *workerOut) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				set := s.sets[i]
				ms := set.Members()
				var present [numRoles]bool
				for _, m := range ms {
					out.hosts = append(out.hosts, hostKV{m.Site, hostEntry{set: set, setIdx: int32(i), role: m.Role}})
					out.bytes += int64(len(m.Site)) + 64
					present[m.Role] = true
				}
				s.respMembers[i] = appendMembers(nil, ms)
				out.bytes += int64(len(s.respMembers[i])) + 24

				// Representative scan, skipped when this set's role
				// combinations are all already represented locally — after a
				// handful of sets this prunes the O(members²) pass entirely.
				novel := false
				for r1 := 0; r1 < numRoles && !novel; r1++ {
					for r2 := 0; r2 < numRoles; r2++ {
						if present[r1] && present[r2] && !out.reps[r1][r2].filled {
							novel = true
							break
						}
					}
				}
				if !novel {
					continue
				}
				for _, top := range ms {
					for _, emb := range ms {
						if top.Site == emb.Site {
							continue
						}
						r := &out.reps[top.Role][emb.Role]
						if !r.filled {
							*r = repPair{top: top.Site, emb: emb.Site, filled: true}
						}
					}
				}
			}
		}(lo, hi, out)
	}
	wg.Wait()

	for _, out := range outs {
		for _, kv := range out.hosts {
			s.hosts[kv.host] = kv.e
		}
		tableBytes += out.bytes
	}

	// Merge verdict representatives: the first worker (in range order)
	// holding a cell holds the globally-first pair for it.
	var reps [numRoles][numRoles]repPair
	for _, out := range outs {
		for r1 := 0; r1 < numRoles; r1++ {
			for r2 := 0; r2 < numRoles; r2++ {
				if !reps[r1][r2].filled && out.reps[r1][r2].filled {
					reps[r1][r2] = out.reps[r1][r2]
				}
			}
		}
	}
	for pid := range s.policies {
		live := s.policies[pid].live
		v := browser.EvaluateFresh(live, "cross-top.invalid", "cross-embedded.invalid")
		s.cross[pid] = verdict{decision: v.Decision, granted: v.Granted, filled: true}
		for r1 := 0; r1 < numRoles; r1++ {
			for r2 := 0; r2 < numRoles; r2++ {
				if rep := reps[r1][r2]; rep.filled {
					ev := browser.EvaluateFresh(live, rep.top, rep.emb)
					s.sameSet[pid][r1][r2] = verdict{decision: ev.Decision, granted: ev.Granted, filled: true}
				}
			}
		}
	}
	return tableBytes
}

// List returns the list the snapshot was derived from.
func (s *Snapshot) List() *core.List { return s.list }

// Hash returns the content hash of the underlying list.
func (s *Snapshot) Hash() string { return s.hash }

// NumSets returns the number of sets in the snapshot.
func (s *Snapshot) NumSets() int { return s.list.NumSets() }

// NumSites returns the number of member sites in the snapshot.
func (s *Snapshot) NumSites() int { return s.list.NumSites() }

// BuildInfo reports how the snapshot was constructed.
func (s *Snapshot) BuildInfo() BuildInfo { return s.info }

// SameSet answers a relatedness query against the precomputed host index.
// Inputs may be any legitimate host spelling (scheme, port, trailing dot,
// mixed case); the response echoes them as given.
//
//rws:hotpath
func (s *Snapshot) SameSet(a, b string) SameSetResponse {
	resp := SameSetResponse{A: a, B: b}
	ea, aok := s.lookup(core.CanonicalHost(a))
	eb, bok := s.lookup(core.CanonicalHost(b))
	if aok && bok && ea.set == eb.set {
		resp.SameSet = true
		resp.Primary = ea.set.Primary
	}
	return resp
}

// Set answers a set-lookup query from the host index, building the
// member structs from the set.
func (s *Snapshot) Set(site string) SetResponse {
	resp := SetResponse{Site: site}
	if e, ok := s.lookup(core.CanonicalHost(site)); ok {
		resp.Found = true
		resp.Role = e.role.String()
		resp.Primary = e.set.Primary
		resp.Members = prebakeMembers(e.set)
	}
	return resp
}

// Partition answers a storage-partitioning query. For pairs of list
// members the verdict comes from the precomputed table; a same-host pair
// is trivially granted (same-site embedding never reaches the policy); any
// query involving an off-list host falls back to the live fresh-profile
// evaluation on the normalized hosts.
//
//rws:hotpath
func (s *Snapshot) Partition(policyName, top, embedded string) (PartitionResponse, error) {
	pid, err := policyFor(policyName)
	if err != nil {
		return PartitionResponse{}, err
	}
	info := &s.policies[pid]
	ct, ce := core.CanonicalHost(top), core.CanonicalHost(embedded)
	te, tok := s.lookup(ct)
	ee, eok := s.lookup(ce)
	sameSet := tok && eok && te.set == ee.set

	var v verdict
	switch {
	case ct == ce:
		v = verdict{decision: browser.GrantedAuto, granted: true, filled: true}
	case sameSet:
		v = s.sameSet[pid][te.role][ee.role]
	case tok && eok:
		v = s.cross[pid]
	}
	if !v.filled {
		// Off-list pairs fall off the precomputed plane to the live
		// simulator; that exit is the audited slow path.
		ev := browser.EvaluateFresh(info.live, ct, ce) //rws:coldpath
		v = verdict{decision: ev.Decision, granted: ev.Granted, filled: true}
	}
	return PartitionResponse{
		Policy:               info.name,
		Top:                  top,
		Embedded:             embedded,
		SameSet:              sameSet,
		PartitionedByDefault: info.partitionByDefault,
		Decision:             v.decision.String(),
		Granted:              v.granted,
	}, nil
}
