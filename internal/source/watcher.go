package source

import (
	"context"
	"errors"
	"time"

	"rwskit/internal/core"
)

// Swap is one list change delivered by a Watcher.
type Swap struct {
	// List is the new revision.
	List *core.List
	// Meta records where the revision came from and its validators.
	Meta Meta
	// Prev is the previously delivered list, or the watcher's initial
	// list for the first swap (nil if there was none). The watcher
	// computes no diff: a consumer that refused Prev still serves an
	// older list, so a logged diff should start from what the consumer
	// serves (serve.Server's SwapDeliver diffs after the install).
	Prev *core.List
	// Forced reports that a Refresh, not a poll tick, produced the swap.
	Forced bool
}

// Watcher drives a Source on a ticker and delivers list changes. A poll
// tick costs one conditional fetch; an unchanged source delivers
// nothing. Refresh forces an unconditional re-read (the SIGHUP path) —
// still gated on the content hash, so a forced refresh of identical
// content delivers nothing either.
type Watcher struct {
	src      Source
	interval time.Duration
	logf     func(format string, args ...any)
	kick     chan struct{}
	cur      *core.List // guarded by Run: confined to the polling goroutine

	// OnPoll, if non-nil, observes the outcome of every completed poll:
	// nil for a delivered swap, ErrNotModified for an unchanged source,
	// anything else for a failed fetch. It runs on the Run goroutine
	// after delivery, so a consumer tracking replication state (poll
	// counts, 304 streaks, last error) sees polls in order. Set it
	// before calling Run.
	OnPoll func(err error)
}

// NewWatcher returns a Watcher polling src every interval (0 disables
// the ticker; only Refresh triggers fetches). initial is the list the
// consumer is already serving, delivered as the first swap's Prev (nil
// if there is none). logf, if non-nil, receives fetch-failure log lines
// (a failed poll keeps the current list and is reported, not fatal).
func NewWatcher(src Source, interval time.Duration, initial *core.List, logf func(format string, args ...any)) *Watcher {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Watcher{
		src:      src,
		interval: interval,
		logf:     logf,
		kick:     make(chan struct{}, 1),
		cur:      initial,
	}
}

// Refresh asks the run loop to invalidate the source's freshness gates
// and fetch now. Non-blocking; refreshes coalesce while one is pending.
func (w *Watcher) Refresh() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

// Run polls until ctx is cancelled, calling deliver (on the Run
// goroutine) for every list change. Consumers that must not block the
// poll loop should hand off from deliver themselves; serve.Server's
// SwapDeliver is cheap relative to any poll interval and is called
// directly.
func (w *Watcher) Run(ctx context.Context, deliver func(Swap)) {
	var tick <-chan time.Time
	if w.interval > 0 {
		t := time.NewTicker(w.interval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
			w.poll(ctx, deliver, false)
		case <-w.kick:
			w.src.Invalidate()
			w.poll(ctx, deliver, true)
		}
	}
}

// poll performs one fetch and delivers the swap if the list changed.
// Called only from Run's goroutine, where w.cur is confined.
//
//rws:locked Run
func (w *Watcher) poll(ctx context.Context, deliver func(Swap), forced bool) {
	list, meta, err := w.src.Fetch(ctx)
	switch {
	case err == nil:
		prev := w.cur
		w.cur = list
		deliver(Swap{List: list, Meta: meta, Prev: prev, Forced: forced})
	case errors.Is(err, ErrNotModified):
		// Unchanged: nothing to deliver.
	case ctx.Err() != nil:
		// Shutting down. Deliberately checked on the watcher's own
		// context, NOT with errors.Is(err, context.DeadlineExceeded):
		// an http.Client timeout satisfies that same Is, and a stale
		// upstream must be logged, not silently dropped.
	default:
		w.logf("source: %s: keeping current list: %v", w.src.Location(), err)
	}
	if w.OnPoll != nil && ctx.Err() == nil {
		w.OnPoll(err)
	}
}
