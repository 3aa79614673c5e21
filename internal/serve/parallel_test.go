package serve

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"rwskit/internal/amplify"
	"rwskit/internal/browser"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
)

// buildSerial is the single-threaded reference construction the
// parallel build is held equivalent to: one pass over the sets in list
// order filling the host index and member fragments, then the full-scan
// verdict builder per policy.
func buildSerial(t testing.TB, list *core.List) *Snapshot {
	t.Helper()
	start := time.Now()
	s := newSnapshot(list, list.Hash())
	var tableBytes int64
	for i, set := range s.sets {
		for _, m := range set.Members() {
			s.hosts[m.Site] = hostEntry{set: set, setIdx: int32(i), role: m.Role}
			tableBytes += int64(len(m.Site)) + 64
		}
		s.respMembers[i] = appendMembers(nil, set.Members())
		tableBytes += int64(len(s.respMembers[i])) + 24
	}
	for pid := range s.policies {
		buildVerdictsSerial(s, policyID(pid))
	}
	snap, err := s.finish(start, tableBytes, 0)
	if err != nil {
		t.Fatal(err)
	}
	return snap
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
// public query surface and the precomputed verdict tables: host-index
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
	if len(got.hosts) != len(want.hosts) {
		t.Fatalf("%s: host index has %d entries, want %d", label, len(got.hosts), len(want.hosts))
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
			ge, gok := got.lookup(m.Site)
			we, wok := want.lookup(m.Site)
			if gok != wok || ge.role != we.role || ge.set.Primary != we.set.Primary {
				t.Fatalf("%s: lookup(%q) = (%v, role %s, primary %s), want (%v, role %s, primary %s)",
					label, m.Site, gok, ge.role, ge.set.Primary, wok, we.role, we.set.Primary)
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
// byte-equal: member fragments, partition heads/tails per policy and
// cell, the stats prefix and the list export.
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
	for pid := 0; pid < int(numPolicies); pid++ {
		eq(fmt.Sprintf("partHead[%d]", pid), got.respPartHead[pid], want.respPartHead[pid])
		eq(fmt.Sprintf("partCross[%d]", pid), got.respPartCross[pid], want.respPartCross[pid])
		eq(fmt.Sprintf("partHostSame[%d]", pid), got.respPartHostSame[pid], want.respPartHostSame[pid])
		eq(fmt.Sprintf("partHostCross[%d]", pid), got.respPartHostCross[pid], want.respPartHostCross[pid])
		for r1 := 0; r1 < numRoles; r1++ {
			for r2 := 0; r2 < numRoles; r2++ {
				eq(fmt.Sprintf("partSame[%d][%d][%d]", pid, r1, r2),
					got.respPartSame[pid][r1][r2], want.respPartSame[pid][r1][r2])
			}
		}
	}
	eq("statsPrefix", got.respStatsPrefix, want.respStatsPrefix)
	eq("list", got.respList, want.respList)
}

// TestParallelSnapshotMatchesSerial is the build's equivalence
// property: parallel construction produces a snapshot semantically
// identical to the serial reference path — over the embedded real list
// and randomized amplified lists, for several seeds × worker counts. CI
// runs the package under -race, so this also proves the phase-A/phase-B
// writes are race-free.
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

	for name, list := range lists {
		serial := buildSerial(t, list)
		for _, workers := range []int{1, 2, 3, 8} {
			par, err := buildSnapshot(list, "", workers, 0)
			if err != nil {
				t.Fatalf("%s/workers=%d: parallel build: %v", name, workers, err)
			}
			equalSnapshots(t, fmt.Sprintf("%s/workers=%d", name, workers), par, serial)
		}
	}
}

// TestNewSnapshotUsesParallelPath pins the default build (BuildSnapshot
// with zero options, GOMAXPROCS workers) to a populated BuildInfo.
func TestNewSnapshotUsesParallelPath(t *testing.T) {
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	info := mustBuild(t, list).BuildInfo()
	if info.EstimatedBytes <= 0 || info.BuildNanos <= 0 {
		t.Errorf("BuildInfo not populated: %+v", info)
	}
}

// TestMemoryBudgetFitOrFail: the budget is fit or fail. A budget at the
// estimate builds the same snapshot as no budget; one byte under it
// builds nothing and says why.
func TestMemoryBudgetFitOrFail(t *testing.T) {
	list, err := amplify.Generate(amplify.Config{Sets: 500, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildSnapshot(list, SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	need := full.BuildInfo().EstimatedBytes
	if need <= 0 {
		t.Fatalf("estimate = %d", need)
	}
	fits, err := BuildSnapshot(list, SnapshotOptions{MemoryBudget: need})
	if err != nil {
		t.Fatalf("budget equal to the estimate should fit: %v", err)
	}
	if info := fits.BuildInfo(); info.EstimatedBytes != need || info.MemoryBudget != need {
		t.Errorf("budgeted BuildInfo = %+v, want estimate and budget %d", info, need)
	}
	equalSnapshots(t, "budgeted", fits, full)

	snap, err := BuildSnapshot(list, SnapshotOptions{MemoryBudget: need - 1})
	if err == nil || snap != nil {
		t.Fatalf("budget one byte under the estimate built %v, err %v; want no snapshot and an error", snap, err)
	}
	if !strings.Contains(err.Error(), "memory budget") {
		t.Errorf("error %q should name the memory budget", err)
	}
}

// TestStoreWithBudgetRejectsOversizedList proves AddList reports the
// budget failure and leaves the previous current version serving.
func TestStoreWithBudgetRejectsOversizedList(t *testing.T) {
	small, err := amplify.Generate(amplify.Config{Sets: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	big, err := amplify.Generate(amplify.Config{Sets: 2000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	smallSnap, err := BuildSnapshot(small, SnapshotOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := NewStoreWith(4, SnapshotOptions{MemoryBudget: smallSnap.BuildInfo().EstimatedBytes + 1024})
	if _, err := st.AddList(small, core.Version{Source: "test"}); err != nil {
		t.Fatalf("small list should fit: %v", err)
	}
	if _, err := st.AddList(big, core.Version{Source: "test"}); err == nil {
		t.Fatal("2000-set list should blow a small-list budget")
	}
	if cur := st.Current(); cur == nil || cur.Hash() != small.Hash() {
		t.Error("failed AddList disturbed the current version")
	}
	if st.Len() != 1 {
		t.Errorf("store retains %d versions, want 1", st.Len())
	}
}
