package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rwskit/internal/amplify"
	"rwskit/internal/core"
	"rwskit/internal/source"
)

// scaleBenchList memoizes the amplified lists across benchmark
// iterations and -count reruns within one process, so the measured loop
// is pure snapshot construction, not list generation.
var scaleBenchLists = map[int]*core.List{}

func scaleBenchList(b *testing.B, sets int) *core.List {
	b.Helper()
	if l, ok := scaleBenchLists[sets]; ok {
		return l
	}
	l, err := amplify.Generate(amplify.Config{Sets: sets, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	scaleBenchLists[sets] = l
	return l
}

var benchSink int

// BenchmarkSnapshotBuildScale measures snapshot construction, one
// serial pass over the list, at the scale tiers the amplifier targets —
// the number the million-set serve plane stands on. Each build also
// computes the list's List.Hash (BuildSnapshot is handed no hash), which
// a boot through AddList never pays: the source hands it the revision's
// hash (see BenchmarkBoot). Gated by rws-benchgate against the committed
// baseline.
func BenchmarkSnapshotBuildScale(b *testing.B) {
	for _, tier := range []struct {
		name string
		sets int
	}{
		{"10k", 10_000},
		{"100k", 100_000},
	} {
		b.Run(tier.name, func(b *testing.B) {
			list := scaleBenchList(b, tier.sets)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = BuildSnapshot(list).NumSites()
			}
		})
	}
}

// BenchmarkBoot measures what a node does at boot with the list body in
// hand: parse a 10⁴-set body with no previous revision, hash the
// revision, and install it through AddList into a fresh store, which
// builds its first snapshot. It is the work servebench's swap_churn
// setup_s times, less the HTTP transfer.
func BenchmarkBoot(b *testing.B) {
	body := scaleBenchList(b, 10_000).JSON()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rev, err := core.ParseJSONFrom(body, nil)
		if err != nil {
			b.Fatal(err)
		}
		st := NewStore(DefaultRetain)
		snap, err := st.AddList(rev.List(), core.Version{Source: "bench", Hash: rev.Hash()})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = snap.NumSites()
	}
}

// BenchmarkStoreSwapUnderTraffic measures the swap-side latency of
// installing a prebuilt 10⁴-set snapshot while reader goroutines hammer
// the current plane — the cost a poller pays per flap at scale, which
// the serve contract requires to be precompute-free. Gated by
// rws-benchgate against the committed baseline.
func BenchmarkStoreSwapUnderTraffic(b *testing.B) {
	b.Run("10k", func(b *testing.B) {
		listA := scaleBenchList(b, 10_000)
		listB, err := amplify.Generate(amplify.Config{Sets: 9_500, Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		snapA, snapB := BuildSnapshot(listA), BuildSnapshot(listB)
		st := NewStore(4)
		base := time.Date(2024, 3, 26, 0, 0, 0, 0, time.UTC)
		ver := func(i int) core.Version {
			at := base.Add(time.Duration(i) * time.Hour)
			return core.Version{Source: "bench", ObservedAt: at, AsOf: at}
		}
		// Warm both versions and the adjacent-diff memo in setup, so the
		// measured loop is the steady-state flap: atomic install + version
		// re-file, no first-swap 10⁴-set diff precompute.
		st.AddSnapshot(snapB, ver(0))
		st.AddSnapshot(snapA, ver(1))
		st.AddSnapshot(snapB, ver(2))

		var stop atomic.Bool
		probe := listA.Sets()[0]
		pa, pb := probe.Primary, probe.Members()[len(probe.Members())-1].Site
		const readers = 4
		done := make(chan struct{}, readers)
		for r := 0; r < readers; r++ {
			go func() {
				defer func() { done <- struct{}{} }()
				for !stop.Load() {
					snap := st.Current()
					resp := snap.SameSet(pa, pb)
					_ = resp
				}
			}()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap := snapA
			if i%2 == 0 {
				snap = snapB
			}
			st.AddSnapshot(snap, ver(3+i))
		}
		b.StopTimer()
		stop.Store(true)
		for r := 0; r < readers; r++ {
			<-done
		}
	})
}

// BenchmarkSwapDeliver measures one 10⁴-set revision through
// SwapDeliver with the hash a source supplies in its Meta: snapshot
// build, install and the logged adjacent diff. The revisions alternate
// between a list and the same list less 50 sets (0.5% churn), sharing
// the rest as a source's parse against the last revision does, and
// retain 1 evicts the superseded version at once, so every iteration
// runs one fresh DiffLists. The bench job holds it to the baseline's
// allocs/op.
func BenchmarkSwapDeliver(b *testing.B) {
	listA := scaleBenchList(b, 10_000)
	listB, err := core.NewList(listA.Sets()[50:])
	if err != nil {
		b.Fatal(err)
	}
	metaA := source.Meta{Location: "bench", Hash: listA.Hash()}
	metaB := source.Meta{Location: "bench", Hash: listB.Hash()}
	st := NewStore(1)
	mustAdd(b, st, listA, metaA.Version())
	deliver := NewFromStore(st).SwapDeliver(io.Discard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw := source.Swap{List: listB, Meta: metaB}
		if i%2 == 1 {
			sw = source.Swap{List: listA, Meta: metaA}
		}
		deliver(sw)
	}
	b.StopTimer()
	if st.Swaps() != uint64(b.N) {
		b.Fatalf("%d swaps installed for %d deliveries", st.Swaps(), b.N)
	}
}

// BenchmarkHandlerListScale measures the /v1/list export of a 10⁴-set
// list at serving scale: one GET per iteration over a loopback
// keep-alive connection, its body read to EOF. It is what a follower's
// full fetch costs the leader and the wire, which BenchmarkHandlerList's
// 41-set body into a discard writer cannot show. The body is checked
// byte for byte against core.List.JSON before timing.
func BenchmarkHandlerListScale(b *testing.B) {
	list := scaleBenchList(b, 10_000)
	ts := httptest.NewServer(New(list))
	defer ts.Close()
	client, url := ts.Client(), ts.URL+"/v1/list"
	want := append(list.JSON(), '\n')
	resp, err := client.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, want) {
		b.Fatalf("/v1/list: status %d, err %v, body equal to the list's JSON: %v",
			resp.StatusCode, err, bytes.Equal(body, want))
	}
	b.SetBytes(int64(len(want)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || n != int64(len(want)) {
			b.Fatalf("read %d of %d bytes: %v", n, len(want), err)
		}
	}
}
