package serve

import (
	"fmt"
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

// numRoles sizes the verdict table's role axes (primary, associated,
// service, cctld).
const numRoles = 4

// SnapshotOptions is NewStoreWith's options argument; it has no fields.
type SnapshotOptions struct{}

// BuildInfo records how a snapshot was built, for /v1/metrics.
type BuildInfo struct {
	// BuildNanos is the wall-clock construction time in nanoseconds. It
	// includes hashing the list only when the builder was not handed the
	// hash (BuildSnapshot, or AddList with an empty Version.Hash).
	BuildNanos int64 `json:"build_nanos"`
}

// Snapshot is the precomputed, immutable query plane the server answers
// from. Hosts resolve through the list's own index (core.List.Lookup),
// which also gives a set's position in list order. BuildSnapshot derives
// everything else the hot path needs from a *core.List in one serial pass
// over its sets:
//
//   - composition statistics,
//   - a per-policy partition-verdict table over (topRole, embRole,
//     sameSet), so /v1/partition for list members is a table lookup
//     instead of a browser build + visit + embed per request,
//   - the list's content hash,
//   - the prebaked response bytes the answers are assembled from
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

	// sets is list.Sets(), the position space core.List.Lookup reports
	// and respMembers is keyed by.
	sets []*core.Set

	// The prebaked response plane (respbake.go): exact compact-JSON wire
	// bytes for the answers that do not depend on the query, assembled
	// into pooled buffers by every hot handler. respMembers is the encoded
	// /v1/set members array per set index — the one stored form of a
	// set's members. respStatsPrefix is the stats body up to the live
	// counters.
	respMembers     [][]byte
	respStatsPrefix []byte
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
	// tables to the live simulation. They are the one stored form of a
	// verdict: Partition and the partition encoder both select from them
	// through verdictFor.
	sameSet [numPolicies][numRoles][numRoles]verdict
	cross   [numPolicies]verdict
}

// BuildSnapshot precomputes the query plane for list. It cannot fail.
func BuildSnapshot(list *core.List) *Snapshot {
	return buildSnapshot(list, "", nil)
}

// buildSnapshot is BuildSnapshot given the list's content hash, which it
// computes only when hash is empty, and the snapshot it replaces (nil
// for none), whose member fragments it reuses for shared sets.
func buildSnapshot(list *core.List, hash string, prev *Snapshot) *Snapshot {
	start := time.Now()
	if hash == "" {
		hash = list.Hash()
	}
	s := newSnapshot(list, hash)
	s.build(prev)
	return s.finish(start)
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

// finish bakes the remaining response bytes over a filled build pass
// and records the build time.
func (s *Snapshot) finish(start time.Time) *Snapshot {
	s.bakeResponses()
	s.info.BuildNanos = time.Since(start).Nanoseconds()
	return s
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

// repPair is the first member pair exhibiting a (topRole, embRole)
// combination: the representative evaluated for that verdict cell. An
// empty top means the list has no such pair.
type repPair struct{ top, emb string }

// build is the one serial pass over the sets in list order. It encodes
// each set's member fragment, or reuses prev's when prev's list holds
// the same *core.Set (sets are immutable once listed), and records the
// first member pair per (topRole, embRole) combination, the pair the
// full-scan verdict builder would evaluate first. Each verdict cell then
// gets one fresh-profile evaluation per policy.
func (s *Snapshot) build(prev *Snapshot) {
	var reps [numRoles][numRoles]repPair
	for i, set := range s.sets {
		ms := set.Members()
		if prev != nil {
			if old, j, _, ok := prev.list.Lookup(set.Primary); ok && old == set {
				s.respMembers[i] = prev.respMembers[j]
			}
		}
		if s.respMembers[i] == nil {
			s.respMembers[i] = appendMembers(nil, ms)
		}
		for _, top := range ms {
			for _, emb := range ms {
				if r := &reps[top.Role][emb.Role]; top.Site != emb.Site && r.top == "" {
					*r = repPair{top.Site, emb.Site}
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
				if rep := reps[r1][r2]; rep.top != "" {
					ev := browser.EvaluateFresh(live, rep.top, rep.emb)
					s.sameSet[pid][r1][r2] = verdict{decision: ev.Decision, granted: ev.Granted, filled: true}
				}
			}
		}
	}
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

// SameSet answers a relatedness query against the list's host index.
// Inputs may be any legitimate host spelling (scheme, port, trailing dot,
// mixed case); the response echoes them as given.
//
//rws:hotpath
func (s *Snapshot) SameSet(a, b string) SameSetResponse {
	resp := SameSetResponse{A: a, B: b}
	sa, _, _, aok := s.list.Lookup(core.CanonicalHost(a))
	sb, _, _, bok := s.list.Lookup(core.CanonicalHost(b))
	if aok && bok && sa == sb {
		resp.SameSet = true
		resp.Primary = sa.Primary
	}
	return resp
}

// Set answers a set-lookup query from the list's host index, building the
// member structs from the set.
func (s *Snapshot) Set(site string) SetResponse {
	resp := SetResponse{Site: site}
	if set, _, role, ok := s.list.Lookup(core.CanonicalHost(site)); ok {
		resp.Found = true
		resp.Role = role.String()
		resp.Primary = set.Primary
		resp.Members = prebakeMembers(set)
	}
	return resp
}

// Partition answers a storage-partitioning query with verdictFor's
// verdict.
//
//rws:hotpath
func (s *Snapshot) Partition(policyName, top, embedded string) (PartitionResponse, error) {
	pid, err := policyFor(policyName)
	if err != nil {
		return PartitionResponse{}, err
	}
	info := &s.policies[pid]
	v, sameSet := s.verdictFor(pid, top, embedded)
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

// verdictFor selects the verdict for (top, embedded) under policy pid,
// and whether the two hosts share a set. For pairs of list members the
// verdict comes from the precomputed tables; a same-host pair is
// trivially granted (same-site embedding never reaches the policy); any
// pair involving an off-list host falls back to the live fresh-profile
// evaluation on the canonical hosts.
//
//rws:hotpath
func (s *Snapshot) verdictFor(pid policyID, top, embedded string) (v verdict, sameSet bool) {
	ct, ce := core.CanonicalHost(top), core.CanonicalHost(embedded)
	ts, _, tr, tok := s.list.Lookup(ct)
	es, _, er, eok := s.list.Lookup(ce)
	sameSet = tok && eok && ts == es
	switch {
	case ct == ce:
		v = verdict{decision: browser.GrantedAuto, granted: true, filled: true}
	case sameSet:
		v = s.sameSet[pid][tr][er]
	case tok && eok:
		v = s.cross[pid]
	}
	if !v.filled {
		// Off-list pairs fall off the precomputed plane to the live
		// simulator; that exit is the audited slow path.
		ev := browser.EvaluateFresh(s.policies[pid].live, ct, ce) //rws:coldpath
		v = verdict{decision: ev.Decision, granted: ev.Granted, filled: true}
	}
	return v, sameSet
}
