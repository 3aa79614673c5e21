package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"rwskit/internal/amplify"
	"rwskit/internal/browser"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
)

// buildSerial is the reference construction the build is held equal
// to: the member fragments in list order, then the full-scan verdict
// builder per policy, which evaluates cells as it meets them instead of
// collecting representatives first.
func buildSerial(list *core.List) *Snapshot {
	start := time.Now()
	s := newSnapshot(list, list.Hash())
	for i, set := range s.sets {
		s.respMembers[i] = appendMembers(nil, set.Members())
	}
	for pid := range s.policies {
		buildVerdictsSerial(s, policyID(pid))
	}
	return s.finish(start)
}

// buildVerdictsSerial fills the partition-verdict tables for one policy
// by running the fresh-profile simulation once per reachable cell, using
// the first member pair (in list order, then Members order) exhibiting
// each (topRole, embRole) combination.
func buildVerdictsSerial(s *Snapshot, pid policyID) {
	live := s.policies[pid].live
	// Cross-set cell: any pair of hosts that are not in the same set —
	// including off-list hosts — takes this verdict, because every policy
	// decides such requests without consulting the list or the roles. The
	// .invalid TLD is reserved (RFC 2606), so these hosts can never be
	// list members.
	v := browser.EvaluateFresh(live, "cross-top.invalid", "cross-embedded.invalid")
	s.cross[pid] = verdict{decision: v.Decision, granted: v.Granted, filled: true}
	for _, set := range s.sets {
		ms := set.Members()
		for _, top := range ms {
			for _, emb := range ms {
				if top.Site == emb.Site {
					continue
				}
				cell := &s.sameSet[pid][top.Role][emb.Role]
				if cell.filled {
					continue
				}
				v := browser.EvaluateFresh(live, top.Site, emb.Site)
				*cell = verdict{decision: v.Decision, granted: v.Granted, filled: true}
			}
		}
	}
}

// equalSnapshots holds two snapshots to exact equality across every
// public query surface and the precomputed verdict tables: lookup
// answers for every member site (plus off-list probes), prebuilt /v1/set
// slices, composition stats, and the full per-policy sameSet/cross
// verdict tables.
func equalSnapshots(t *testing.T, label string, got, want *Snapshot) {
	t.Helper()
	if got.Hash() != want.Hash() {
		t.Fatalf("%s: hash %.12s != %.12s", label, got.Hash(), want.Hash())
	}
	if got.NumSets() != want.NumSets() || got.NumSites() != want.NumSites() {
		t.Fatalf("%s: sizes (%d sets, %d sites) != (%d sets, %d sites)",
			label, got.NumSets(), got.NumSites(), want.NumSets(), want.NumSites())
	}
	// Verdict tables, cell by cell.
	for pid := 0; pid < int(numPolicies); pid++ {
		if got.cross[pid] != want.cross[pid] {
			t.Errorf("%s: policy %d cross verdict %+v != %+v", label, pid, got.cross[pid], want.cross[pid])
		}
		for r1 := 0; r1 < numRoles; r1++ {
			for r2 := 0; r2 < numRoles; r2++ {
				if got.sameSet[pid][r1][r2] != want.sameSet[pid][r1][r2] {
					t.Errorf("%s: policy %d sameSet[%s][%s] = %+v, want %+v", label, pid,
						core.Role(r1), core.Role(r2), got.sameSet[pid][r1][r2], want.sameSet[pid][r1][r2])
				}
			}
		}
	}
	// Every member site answers identically on the lookup surfaces.
	for _, set := range want.List().Sets() {
		for _, m := range set.Members() {
			gset, gpos, grole, gok := got.List().Lookup(m.Site)
			wset, wpos, wrole, wok := want.List().Lookup(m.Site)
			if gok != wok || gpos != wpos || grole != wrole || gset.Primary != wset.Primary {
				t.Fatalf("%s: lookup(%q) = (%v, pos %d, role %s, primary %s), want (%v, pos %d, role %s, primary %s)",
					label, m.Site, gok, gpos, grole, gset.Primary, wok, wpos, wrole, wset.Primary)
			}
			gs, ws := got.Set(m.Site), want.Set(m.Site)
			if gs.Found != ws.Found || gs.Role != ws.Role || gs.Primary != ws.Primary || len(gs.Members) != len(ws.Members) {
				t.Fatalf("%s: Set(%q) = %+v, want %+v", label, m.Site, gs, ws)
			}
			for i := range gs.Members {
				if gs.Members[i] != ws.Members[i] {
					t.Fatalf("%s: Set(%q).Members[%d] = %+v, want %+v", label, m.Site, i, gs.Members[i], ws.Members[i])
				}
			}
		}
	}
	// Partition answers on a cross-section of pairs: same-set, cross-set,
	// same-host, and off-list, under every policy spelling.
	sets := want.List().Sets()
	probeA := sets[0].Members()
	probeB := sets[len(sets)/2].Members()
	pairs := [][2]string{
		{probeA[0].Site, probeA[len(probeA)-1].Site},
		{probeA[0].Site, probeB[0].Site},
		{probeB[0].Site, probeB[0].Site},
		{probeA[0].Site, "off-list.invalid"},
		{"off-a.invalid", "off-b.invalid"},
	}
	for _, policy := range []string{"rws", "strict", "prompt", "legacy"} {
		for _, p := range pairs {
			gp, gerr := got.Partition(policy, p[0], p[1])
			wp, werr := want.Partition(policy, p[0], p[1])
			if (gerr != nil) != (werr != nil) || gp != wp {
				t.Fatalf("%s: Partition(%s, %q, %q) = (%+v, %v), want (%+v, %v)",
					label, policy, p[0], p[1], gp, gerr, wp, werr)
			}
			gss, wss := got.SameSet(p[0], p[1]), want.SameSet(p[0], p[1])
			if gss != wss {
				t.Fatalf("%s: SameSet(%q, %q) = %+v, want %+v", label, p[0], p[1], gss, wss)
			}
		}
	}
	equalPrebakedTables(t, label, got, want)
}

// equalPrebakedTables holds the prebaked response plane of two snapshots
// byte-equal: member fragments, the stats prefix and the list export.
func equalPrebakedTables(t *testing.T, label string, got, want *Snapshot) {
	t.Helper()
	eq := func(what string, g, w []byte) {
		t.Helper()
		if string(g) != string(w) {
			t.Fatalf("%s: prebaked %s = %q, want %q", label, what, g, w)
		}
	}
	if len(got.respMembers) != len(want.respMembers) {
		t.Fatalf("%s: %d member fragments, want %d", label, len(got.respMembers), len(want.respMembers))
	}
	for i := range want.respMembers {
		eq(fmt.Sprintf("members[%d]", i), got.respMembers[i], want.respMembers[i])
	}
	eq("statsPrefix", got.respStatsPrefix, want.respStatsPrefix)
	eq("list", got.respList, want.respList)
}

// TestParallelSnapshotMatchesSerial is the build's equivalence property:
// builds of one list run in parallel, sharing its host index, and each
// produces a snapshot semantically identical to the full-scan reference
// path, over the embedded real list and randomized amplified lists.
func TestParallelSnapshotMatchesSerial(t *testing.T) {
	lists := map[string]*core.List{}
	embedded, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	lists["embedded"] = embedded
	for _, seed := range []int64{1, 2, 3} {
		list, err := amplify.Generate(amplify.Config{Sets: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		lists[fmt.Sprintf("amplified-seed%d", seed)] = list
	}
	tiny, err := amplify.Generate(amplify.Config{Sets: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	lists["tiny"] = tiny

	const builders = 3
	for name, list := range lists {
		snaps := make([]*Snapshot, builders)
		var wg sync.WaitGroup
		for i := range snaps {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				snaps[i] = BuildSnapshot(list)
			}(i)
		}
		wg.Wait()
		serial := buildSerial(list)
		for i, snap := range snaps {
			equalSnapshots(t, fmt.Sprintf("%s/builder=%d", name, i), snap, serial)
		}
	}
}

// TestNewSnapshotUsesParallelPath checks that the public build entry
// point reports its cost. The name dates from a sharded build; the one
// pass is now the only path, and its BuildInfo must still be filled.
func TestNewSnapshotUsesParallelPath(t *testing.T) {
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	info := BuildSnapshot(list).BuildInfo()
	if info.BuildNanos <= 0 {
		t.Errorf("BuildInfo not populated: %+v", info)
	}
}
