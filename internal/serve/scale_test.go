package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"rwskit/internal/amplify"
	"rwskit/internal/core"
)

// TestScaleTierSwapUnderTraffic is the scale-tier stress test: a
// 10⁴-set amplified snapshot is swapped into a Store repeatedly while
// concurrent workers drive sameset, partition, set, stats, and diff
// traffic through the HTTP handlers. It asserts the swap plane's
// consistency contract at scale:
//
//   - every request returns 200 — a swap never makes an in-flight or
//     subsequent request fail;
//   - no torn reads — every /v1/stats response matches exactly one of
//     the two lists' composition tuples, and version-pinned /v1/set
//     responses always return the pinned list's prebaked members;
//   - bounded swap pause — installing a prebuilt 10⁴-set snapshot under
//     full read traffic stays within a generous p99 bound (the serve
//     contract is that AddSnapshot does no precompute on the swap path).
//
// Under -short the tier shrinks two orders of magnitude so tier-1 stays
// fast; CI runs the full tier.
func TestScaleTierSwapUnderTraffic(t *testing.T) {
	setsA, setsB, perWorker := 10000, 9500, 400
	if testing.Short() {
		setsA, setsB, perWorker = 1000, 900, 80
	}
	listA, err := amplify.Generate(amplify.Config{Sets: setsA, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	listB, err := amplify.Generate(amplify.Config{Sets: setsB, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	snapA, snapB := BuildSnapshot(listA), BuildSnapshot(listB)

	// Install both versions up front (A last, so it serves unversioned
	// queries); the swapper then alternates the current pointer between
	// the two retained versions, which is the poller-flap shape PR 4
	// taught the store to retain without duplication.
	st := NewStore(4)
	base := time.Date(2024, 3, 26, 0, 0, 0, 0, time.UTC)
	st.AddSnapshot(snapB, core.Version{Source: "scale", ObservedAt: base, AsOf: base})
	st.AddSnapshot(snapA, core.Version{Source: "scale", ObservedAt: base.Add(time.Hour), AsOf: base.Add(time.Hour)})
	srv := NewFromStore(st)

	type statTuple struct {
		Sets            int `json:"sets"`
		Sites           int `json:"sites"`
		AssociatedSites int `json:"associated_sites"`
		ServiceSites    int `json:"service_sites"`
		CCTLDSites      int `json:"cctld_sites"`
	}
	tupleOf := func(s *Snapshot) statTuple {
		st := s.list.Stats()
		return statTuple{
			Sets:            st.Sets,
			Sites:           s.NumSites(),
			AssociatedSites: st.AssociatedSites,
			ServiceSites:    st.ServiceSites,
			CCTLDSites:      st.CCTLDSites,
		}
	}
	tupleA, tupleB := tupleOf(snapA), tupleOf(snapB)

	// The version-pinned probe: a mid-list set of A, whose members must
	// come back byte-identical to A's prebaked slice no matter which
	// version is current.
	probeSet := listA.Sets()[setsA/2]
	wantProbe := snapA.Set(probeSet.Primary)
	sameSetPair := [2]string{probeSet.Primary, probeSet.Members()[len(probeSet.Members())-1].Site}
	hashA, hashB := snapA.Hash()[:12], snapB.Hash()[:12]

	get := func(url string) (int, []byte) {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}

	const workers = 4
	var wg sync.WaitGroup
	errc := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				switch i % 5 {
				case 0:
					code, body := get("/v1/sameset?a=" + sameSetPair[0] + "&b=" + sameSetPair[1])
					if code != http.StatusOK {
						errc <- fmt.Errorf("sameset: status %d: %s", code, body)
						continue
					}
					var resp SameSetResponse
					if err := json.Unmarshal(body, &resp); err != nil {
						errc <- fmt.Errorf("sameset: %v", err)
					} else if !resp.SameSet {
						// The pair is same-set in A; under B's current plane
						// it may legitimately miss — but only as a clean
						// "false", never an error.
						_ = resp
					}
				case 1:
					code, body := get("/v1/partition?policy=rws&top=" + sameSetPair[0] + "&embedded=" + sameSetPair[1])
					if code != http.StatusOK {
						errc <- fmt.Errorf("partition: status %d: %s", code, body)
					}
				case 2:
					code, body := get("/v1/set?site=" + probeSet.Primary + "&version=" + hashA)
					if code != http.StatusOK {
						errc <- fmt.Errorf("set: status %d: %s", code, body)
						continue
					}
					var resp SetResponse
					if err := json.Unmarshal(body, &resp); err != nil {
						errc <- fmt.Errorf("set: %v", err)
						continue
					}
					if !resp.Found || resp.Primary != wantProbe.Primary || len(resp.Members) != len(wantProbe.Members) {
						errc <- fmt.Errorf("torn set read: %+v", resp)
						continue
					}
					for j := range resp.Members {
						if resp.Members[j] != wantProbe.Members[j] {
							errc <- fmt.Errorf("torn set member %d: %+v != %+v", j, resp.Members[j], wantProbe.Members[j])
						}
					}
				case 3:
					code, body := get("/v1/stats")
					if code != http.StatusOK {
						errc <- fmt.Errorf("stats: status %d: %s", code, body)
						continue
					}
					var got statTuple
					if err := json.Unmarshal(body, &got); err != nil {
						errc <- fmt.Errorf("stats: %v", err)
						continue
					}
					if got != tupleA && got != tupleB {
						errc <- fmt.Errorf("torn stats read: %+v matches neither %+v nor %+v", got, tupleA, tupleB)
					}
				case 4:
					code, body := get("/v1/diff?from=" + hashB + "&to=" + hashA)
					if code != http.StatusOK {
						errc <- fmt.Errorf("diff: status %d: %s", code, body)
					}
				}
			}
		}(w)
	}

	// The swapper: alternate the two prebuilt snapshots while the readers
	// run, recording each install's latency.
	swaps := 40
	if testing.Short() {
		swaps = 10
	}
	pauses := make([]time.Duration, 0, swaps)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < swaps; i++ {
			snap, at := snapB, base.Add(time.Duration(2+i)*time.Hour)
			if i%2 == 1 {
				snap = snapA
			}
			start := time.Now()
			st.AddSnapshot(snap, core.Version{Source: "scale", ObservedAt: at, AsOf: at})
			pauses = append(pauses, time.Since(start))
		}
	}()

	wg.Wait()
	<-done
	close(errc)
	bad := 0
	for err := range errc {
		if bad < 10 {
			t.Error(err)
		}
		bad++
	}
	if bad > 10 {
		t.Errorf("... and %d more errors", bad-10)
	}

	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	p99 := pauses[len(pauses)*99/100]
	// Generous bound: AddSnapshot does no snapshot precompute, but the
	// first B→A / A→B installs do compute the adjacent 10⁴-set diff, and
	// CI runs this under -race on shared runners.
	if limit := 5 * time.Second; p99 > limit {
		t.Errorf("swap p99 pause %v exceeds %v (pauses: min %v max %v)", p99, limit, pauses[0], pauses[len(pauses)-1])
	}
	if st.Swaps() == 0 {
		t.Error("swapper never swapped")
	}
}
