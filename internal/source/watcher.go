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

	// OnPoll, if non-nil, observes the outcome of every completed poll:
	// nil for a delivered swap, ErrNotModified for an unchanged source,
	// anything else for a failed fetch. It runs on the Run goroutine
	// after delivery, so a consumer tracking replication state (poll
	// counts, 304 streaks, last error) sees polls in order. Set it
	// before calling Run.
	OnPoll func(err error)
}

// NewWatcher returns a Watcher polling src every interval (0 disables
// the ticker; only Refresh triggers fetches). The watcher computes no
// diffs, so initial, the list the consumer already serves, is unused;
// the parameter stays for existing callers. logf, if non-nil, receives
// fetch-failure log lines (a failed poll keeps the current list and is
// reported, not fatal).
func NewWatcher(src Source, interval time.Duration, initial *core.List, logf func(format string, args ...any)) *Watcher {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Watcher{
		src:      src,
		interval: interval,
		logf:     logf,
		kick:     make(chan struct{}, 1),
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
			w.poll(ctx, deliver)
		case <-w.kick:
			w.src.Invalidate()
			w.poll(ctx, deliver)
		}
	}
}

// poll performs one fetch and delivers the swap if the list changed.
func (w *Watcher) poll(ctx context.Context, deliver func(Swap)) {
	list, meta, err := w.src.Fetch(ctx)
	switch {
	case err == nil:
		deliver(Swap{List: list, Meta: meta})
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
