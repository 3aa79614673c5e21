package main

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"

	"rwskit/internal/browser"
	"rwskit/internal/core"
	"rwskit/internal/serve"
)

// The oracle recomputes an answer from the revision's core.List and the
// browser simulator, independently of the serve plane's precomputed
// tables, and compares it with what the server sent.

func expectSameSet(l *core.List, a, b string) serve.SameSetResponse {
	resp := serve.SameSetResponse{A: a, B: b}
	if l.SameSet(a, b) {
		set, _, _ := l.FindSet(a)
		resp.SameSet, resp.Primary = true, set.Primary
	}
	return resp
}

func expectSet(l *core.List, site string) serve.SetResponse {
	resp := serve.SetResponse{Site: site}
	set, role, ok := l.FindSet(site)
	if !ok {
		return resp
	}
	resp.Found, resp.Role, resp.Primary = true, role.String(), set.Primary
	for _, m := range set.Members() {
		resp.Members = append(resp.Members, serve.SetMember{Site: m.Site, Role: m.Role.String(), AliasOf: m.AliasOf})
	}
	return resp
}

func expectPartition(l *core.List, top, embedded string) serve.PartitionResponse {
	policy := browser.RWSPolicy{List: l}
	ct, ce := core.CanonicalHost(top), core.CanonicalHost(embedded)
	v := browser.Verdict{Decision: browser.GrantedAuto, Granted: true}
	if ct != ce {
		v = browser.EvaluateFresh(policy, ct, ce)
	}
	return serve.PartitionResponse{
		Policy:               policy.Name(),
		Top:                  top,
		Embedded:             embedded,
		SameSet:              l.SameSet(ct, ce),
		PartitionedByDefault: policy.PartitionByDefault(),
		Decision:             v.Decision.String(),
		Granted:              v.Granted,
	}
}

// checkAnswer compares a response body with the oracle's answer for r on
// list l.
func checkAnswer(l *core.List, r *request, body []byte) error {
	var got, want any
	switch r.kind {
	case kSameSet:
		var g serve.SameSetResponse
		got, want = &g, expectSameSet(l, r.hosts[0], r.hosts[1])
	case kSet:
		var g serve.SetResponse
		got, want = &g, expectSet(l, r.hosts[0])
	case kPartition:
		var g serve.PartitionResponse
		got, want = &g, expectPartition(l, r.hosts[0], r.hosts[1])
	case kBatch:
		var g serve.SameSetBatchResponse
		w := serve.SameSetBatchResponse{Pairs: len(r.hosts) / 2}
		for i := 0; i < len(r.hosts); i += 2 {
			w.Results = append(w.Results, expectSameSet(l, r.hosts[i], r.hosts[i+1]))
		}
		got, want = &g, w
	}
	if err := json.Unmarshal(body, got); err != nil {
		return fmt.Errorf("%s: decoding %q: %v", r.path, abbrev(body), err)
	}
	if g := reflect.ValueOf(got).Elem().Interface(); !reflect.DeepEqual(g, want) {
		return fmt.Errorf("%s: got %+v, oracle says %+v", r.path, g, want)
	}
	return nil
}

func abbrev(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	return s
}

// checkSample checks one kept response: its ETag must name a revision the
// origin published (the one a pinned request names), and its body must
// match the oracle's answer on that revision.
func (b *bench) checkSample(s sample) error {
	hash := strings.Trim(s.etag, `"`)
	idx, ok := b.hashRev[hash]
	if !ok {
		return fmt.Errorf("%s: ETag %s names no published revision", s.req.path, s.etag)
	}
	if s.req.rev >= 0 && b.revs[s.req.rev].hash != hash {
		return fmt.Errorf("%s: pinned to revision %d but answered from %.12s", s.req.path, s.req.rev, hash)
	}
	l, err := b.revList(idx)
	if err != nil {
		return err
	}
	return checkAnswer(l, s.req, s.body)
}
