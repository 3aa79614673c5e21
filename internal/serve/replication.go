package serve

import (
	"errors"
	"sync"
	"time"

	"rwskit/internal/source"
)

// This file is the follower side of the edge tier: a serve node whose
// -list points at another node's /v1/list detects that fact from the
// source metadata (Meta.Follows) and advertises its replication state in
// /v1/metrics — which leader it tracks, the last-synced version hash,
// how far behind the leader's swap it installed it (propagation lag),
// and how long the leader has been idle (consecutive-304 streak).
// Everything here is off the request hot path: swaps and polls arrive on
// the watcher goroutine, /v1/metrics reads take the same small mutex.

// ReplicationMetrics is the replication block of a /v1/metrics response,
// present only on followers.
type ReplicationMetrics struct {
	// Upstream is the leader /v1/list URL this node follows.
	Upstream string `json:"upstream"`
	// VersionHash is the last list version synced from the leader.
	VersionHash string `json:"version_hash"`
	// UpstreamAsOf is the leader-advertised logical time of that version.
	UpstreamAsOf time.Time `json:"upstream_as_of"`
	// SyncedAt is when this node installed it.
	SyncedAt time.Time `json:"synced_at"`
	// LagMillis is the swap-propagation lag of the last sync: the time
	// from the leader installing the version (X-RWS-Swapped-At) to this
	// node installing it.
	LagMillis int64 `json:"lag_ms"`
	// Streak304 counts consecutive not-modified polls since the last
	// sync — how long the leader has been idle, in poll ticks.
	Streak304 uint64 `json:"consecutive_304"`
	// Polls counts completed polls; Swaps counts delivered syncs;
	// PollErrors counts failed fetches (the follower keeps serving its
	// last snapshot through them — graceful degradation, not an outage).
	Polls      uint64 `json:"polls"`
	Swaps      uint64 `json:"swaps"`
	PollErrors uint64 `json:"poll_errors"`
	// LastError is the most recent fetch failure while it lasts (a later
	// successful poll clears it), else a standing refusal to install the
	// leader's last revision (AddList's error), cleared by the next
	// installed sync.
	LastError string `json:"last_error,omitempty"`
}

// replState is the mutable follower state behind ReplicationMetrics.
type replState struct {
	mu        sync.Mutex
	following bool               // guarded by mu
	m         ReplicationMetrics // guarded by mu
	refusal   string             // guarded by mu: the standing install refusal, "" when none
	now       func() time.Time   // guarded by mu: test clock, nil = time.Now
}

// FollowUpstream marks this server as a follower of the given leader
// URL; /v1/metrics carries the replication block from then on.
func (s *Server) FollowUpstream(url string) {
	s.repl.mu.Lock()
	s.repl.following = true
	s.repl.m.Upstream = url
	s.repl.mu.Unlock()
}

// RecordReplicationSwap records a revision synced from the leader:
// version hash, leader logical time, and the swap-propagation lag
// derived from the leader's X-RWS-Swapped-At (falling back to its as-of
// when the leader predates the swap header). Call it after the store
// swap, with the meta the revision was fetched under.
func (s *Server) RecordReplicationSwap(meta source.Meta) {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	now := time.Now()
	if s.repl.now != nil {
		now = s.repl.now()
	}
	origin := meta.UpstreamSwappedAt
	if origin.IsZero() {
		origin = meta.UpstreamAsOf
	}
	var lag time.Duration
	if !origin.IsZero() {
		// Clamp at zero: clock skew between leader and follower must not
		// report a negative lag.
		if lag = now.Sub(origin); lag < 0 {
			lag = 0
		}
	}
	s.repl.following = true
	if s.repl.m.Upstream == "" {
		s.repl.m.Upstream = meta.Location
	}
	s.repl.m.VersionHash = meta.Hash
	s.repl.m.UpstreamAsOf = meta.UpstreamAsOf
	s.repl.m.SyncedAt = now
	s.repl.m.LagMillis = lag.Milliseconds()
	s.repl.m.Streak304 = 0
	s.repl.m.Swaps++
	s.repl.refusal = ""
	s.repl.m.LastError = ""
}

// recordReplicationRefusal records a revision synced from the leader
// that the store refused to install: the follower keeps its last
// version (VersionHash and Swaps stay put) and reports why in
// LastError until a later revision installs.
func (s *Server) recordReplicationRefusal(err error) {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	s.repl.refusal = "refused to install the leader's list: " + err.Error()
	s.repl.m.LastError = s.repl.refusal
}

// RecordReplicationPoll observes one completed watcher poll; wire it to
// source.Watcher.OnPoll. A nil error is a delivered swap (already
// recorded by RecordReplicationSwap via the deliver callback), a
// not-modified is an idle leader extending the 304 streak, anything
// else is a fetch failure the follower rides out on its last snapshot.
func (s *Server) RecordReplicationPoll(err error) {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	s.repl.m.Polls++
	switch {
	case err == nil:
		s.repl.m.LastError = s.repl.refusal
	case errors.Is(err, source.ErrNotModified):
		s.repl.m.Streak304++
		s.repl.m.LastError = s.repl.refusal
	default:
		s.repl.m.PollErrors++
		s.repl.m.LastError = err.Error()
	}
}

// Replication returns a copy of the follower state, or nil when this
// node does not follow an upstream.
func (s *Server) Replication() *ReplicationMetrics {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	if !s.repl.following {
		return nil
	}
	m := s.repl.m
	return &m
}
