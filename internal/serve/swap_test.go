package serve

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"rwskit/internal/core"
	"rwskit/internal/dataset"
	"rwskit/internal/source"
)

// seqSource returns one scripted revision per Fetch, with the Meta a
// real source gives it (the content hash included), then ErrNotModified.
type seqSource struct {
	mu   sync.Mutex
	revs []*core.List
	next int // guarded by mu
}

func (s *seqSource) Fetch(context.Context) (*core.List, source.Meta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == len(s.revs) {
		return nil, source.Meta{}, source.ErrNotModified
	}
	l := s.revs[s.next]
	s.next++
	return l, source.Meta{Location: "seq", Hash: l.Hash(), FetchedAt: time.Now()}, nil
}

func (s *seqSource) Invalidate()      {}
func (s *seqSource) Location() string { return "seq" }

// watchAll runs a Watcher over revs into deliver, one forced poll per
// revision, and returns once every revision has been delivered and the
// watcher has stopped.
func watchAll(t *testing.T, initial *core.List, revs []*core.List, deliver func(source.Swap)) {
	t.Helper()
	w := source.NewWatcher(&seqSource{revs: revs}, 0, initial, nil)
	ctx, cancel := context.WithCancel(context.Background())
	delivered := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx, func(sw source.Swap) {
			deliver(sw)
			select {
			case delivered <- struct{}{}:
			case <-ctx.Done():
			}
		})
	}()
	defer func() {
		cancel()
		<-done
	}()
	for range revs {
		w.Refresh()
		select {
		case <-delivered:
		case <-time.After(10 * time.Second):
			t.Fatal("watcher never delivered the revision")
		}
	}
}

// prefixLists returns lists of the embedded list's first n sets, one per
// n in ns.
func prefixLists(t *testing.T, ns ...int) []*core.List {
	t.Helper()
	embedded, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*core.List, len(ns))
	for i, n := range ns {
		l, err := core.NewList(embedded.Sets()[:n])
		if err != nil {
			t.Fatal(err)
		}
		out[i] = l
	}
	return out
}

// loggedSummaries returns the diff summaries of the "swapped" lines
// SwapDeliver wrote.
func loggedSummaries(log string) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
		if strings.HasPrefix(line, "serve: swapped") {
			_, summary, _ := strings.Cut(line, "): ")
			out = append(out, summary)
		}
	}
	return out
}

// TestAddListTrustsVersionHash pins one hash per revision: a non-empty
// Version.Hash is used as given (a sentinel the list cannot hash to
// proves AddList did not recompute it), and only an empty one is
// computed.
func TestAddListTrustsVersionHash(t *testing.T) {
	lists := prefixLists(t, 3, 5)
	st := NewStore(4)
	sentinel := strings.Repeat("5e", 32)
	if snap := mustAdd(t, st, lists[0], core.Version{Hash: sentinel}); snap.Hash() != sentinel {
		t.Errorf("snapshot hash = %.12s, want the supplied %.12s", snap.Hash(), sentinel)
	}
	if snap := mustAdd(t, st, lists[1], core.Version{}); snap.Hash() != lists[1].Hash() {
		t.Errorf("snapshot hash = %.12s, want list.Hash() %.12s", snap.Hash(), lists[1].Hash())
	}
}

// TestSwapDeliverDiffsOncePerSwap: N revisions through Watcher →
// SwapDeliver run core.DiffLists exactly N times, whether the
// superseded version stays retained (the log line's diff fills its
// memo slot, one per swap) or is evicted at once (retain 1: the log
// line computes it unmemoized). Each logged summary is the diff from
// the served list.
func TestSwapDeliverDiffsOncePerSwap(t *testing.T) {
	lists := prefixLists(t, 4, 6, 5, 9, 2, 7)
	initial, revs := lists[0], lists[1:]
	for _, retain := range []int{DefaultRetain, 1} {
		st := NewStore(retain)
		mustAdd(t, st, initial, core.Version{Source: "boot"})
		srv := NewFromStore(st)
		before := st.diffMetrics().Computes
		var log bytes.Buffer
		watchAll(t, initial, revs, srv.SwapDeliver(&log))
		if got := st.diffMetrics().Computes - before; got != uint64(len(revs)) {
			t.Errorf("retain %d: %d DiffLists runs for %d swaps", retain, got, len(revs))
		}
		// Each swap leaves one memo slot, superseded→current, unless the
		// superseded version was evicted at once.
		wantSlots := len(revs)
		if retain == 1 {
			wantSlots = 0
		}
		if n := len(memoKeys(st)); n != wantSlots {
			t.Errorf("retain %d: %d memo slots after %d swaps, want %d", retain, n, len(revs), wantSlots)
		}
		got := loggedSummaries(log.String())
		if len(got) != len(revs) {
			t.Fatalf("retain %d: %d swap lines for %d swaps:\n%s", retain, len(got), len(revs), log.String())
		}
		prev := initial
		for i, rev := range revs {
			if want := core.DiffLists(prev, rev).Summary(); got[i] != want {
				t.Errorf("retain %d swap %d: logged %q, want %q", retain, i, got[i], want)
			}
			prev = rev
		}
	}
}
