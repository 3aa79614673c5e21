package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"rwskit/internal/browser"
	"rwskit/internal/core"
)

// This file is the response plane: the exact compact-JSON wire bytes
// for the enumerable answers (per-set /v1/set members, per-(roles,
// policy) partition verdicts, the stats body, the /v1/list export) are
// computed once at snapshot build time, and the append* encoders below
// assemble every sameset, set, partition and stats answer — for any
// retained version, single or batch — from those fragments and the
// echoed inputs into a pooled buffer and one w.Write: zero encodes, zero
// per-request allocations in steady state. They are the only encoders of
// those responses, held byte-identical to encoding/json over the
// documented response structs (TestPrebakedResponsesMatchLiveEncode);
// ?pretty=1 is json.Indent over the same bytes.

// maxRetainedBuf caps the capacity of buffers returned to the pools;
// anything larger (a one-off huge batch) is left for the GC instead of
// pinning memory forever.
const maxRetainedBuf = 64 << 10

// respBuf is a pooled response-assembly buffer.
type respBuf struct{ b []byte }

var respBufPool = sync.Pool{New: func() any { return &respBuf{b: make([]byte, 0, 1024)} }}

func getRespBuf() *respBuf { return respBufPool.Get().(*respBuf) }

func putRespBuf(rb *respBuf) {
	if cap(rb.b) <= maxRetainedBuf {
		respBufPool.Put(rb)
	}
}

// writeResp writes an assembled 200 body and recycles its buffer.
func writeResp(w http.ResponseWriter, rb *respBuf, pretty bool) {
	writeRawJSON(w, http.StatusOK, rb.b, pretty)
	putRespBuf(rb)
}

// jsonBufPool recycles the encode buffers behind writeJSON and the
// indented copies behind ?pretty=1.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// contentTypeJSON is the Content-Type value of every response, as a
// preallocated header slice shared across requests so the hot path does
// not allocate one per response. Nothing may mutate it.
var contentTypeJSON = []string{"application/json; charset=utf-8"}

// writeRawJSON writes an already-encoded compact JSON body, indented
// with json.Indent when pretty. The Content-Type slice is shared and the
// header write is a plain map assignment; Content-Length is left to
// net/http (it infers the exact length for buffered bodies), because
// Header().Set plus strconv.Itoa would cost two allocations per response
// on an otherwise zero-alloc path.
func writeRawJSON(w http.ResponseWriter, status int, body []byte, pretty bool) {
	var buf *bytes.Buffer
	if pretty {
		buf = jsonBufPool.Get().(*bytes.Buffer)
		buf.Reset()
		if json.Indent(buf, body, "", "  ") == nil {
			body = buf.Bytes()
		}
	}
	w.Header()["Content-Type"] = contentTypeJSON
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	w.Write(body)
	if buf != nil && buf.Cap() <= maxRetainedBuf {
		jsonBufPool.Put(buf)
	}
}

// sameSetCrossTail closes a SameSetResponse for a pair that shares no
// set: the Primary field is omitempty, so the tail is constant.
var sameSetCrossTail = []byte(`,"same_set":false}`)

// setNotFoundTail closes a SetResponse miss (role/primary/members all
// omitempty).
var setNotFoundTail = []byte(`,"found":false}` + "\n")

// appendMembers appends the /v1/set members array of one set, exactly as
// encoding/json renders a []SetMember.
func appendMembers(dst []byte, ms []core.Member) []byte {
	dst = append(dst, '[')
	for i, m := range ms {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"site":`...)
		dst = core.AppendJSONString(dst, m.Site)
		dst = append(dst, `,"role":`...)
		dst = core.AppendJSONString(dst, m.Role.String())
		if m.AliasOf != "" {
			dst = append(dst, `,"alias_of":`...)
			dst = core.AppendJSONString(dst, m.AliasOf)
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// bakeResponses fills the per-policy partition fragments, the stats
// prefix and the /v1/list body after the build pass has encoded the
// member fragments.
func (s *Snapshot) bakeResponses() error {
	for pid := range s.policies {
		info := &s.policies[pid]
		head := make([]byte, 0, len(info.name)+24)
		head = append(head, `{"policy":`...)
		head = core.AppendJSONString(head, info.name)
		head = append(head, `,"top":`...)
		s.respPartHead[pid] = head

		cross := s.cross[pid]
		s.respPartCross[pid] = partitionTail(false, info.partitionByDefault, cross.decision, cross.granted)
		// The same-host cases (ct == ce) never reach the policy: the
		// verdict is granted-auto, with same_set reporting whether the
		// host is a list member (both lookups hit the same entry).
		s.respPartHostSame[pid] = partitionTail(true, info.partitionByDefault, browser.GrantedAuto, true)
		s.respPartHostCross[pid] = partitionTail(false, info.partitionByDefault, browser.GrantedAuto, true)
		for r1 := 0; r1 < numRoles; r1++ {
			for r2 := 0; r2 < numRoles; r2++ {
				if cell := s.sameSet[pid][r1][r2]; cell.filled {
					s.respPartSame[pid][r1][r2] = partitionTail(true, info.partitionByDefault, cell.decision, cell.granted)
				}
			}
		}
	}

	// The stats body is constant per snapshot except the two live server
	// counters; bake everything up to requests_served and splice digits in
	// at request time. The split point is verified against the real
	// encoder so a StatsResponse field change can never desynchronize it.
	st := s.list.Stats()
	statsBody, err := json.Marshal(StatsResponse{
		Sets:            st.Sets,
		Sites:           s.list.NumSites(),
		AssociatedSites: st.AssociatedSites,
		ServiceSites:    st.ServiceSites,
		CCTLDSites:      st.CCTLDSites,
		MeanAssociated:  st.MeanAssociatedPerSet,
		SnapshotHash:    s.hash,
	})
	marker := []byte(`,"requests_served":0,"list_swaps":0}`)
	if err == nil && !bytes.HasSuffix(statsBody, marker) {
		err = fmt.Errorf("body %s does not end in %s", statsBody, marker)
	}
	if err != nil {
		return fmt.Errorf("serve: baking the stats body: %w", err)
	}
	prefix := statsBody[:len(statsBody)-len(marker)]
	s.respStatsPrefix = append(prefix[:len(prefix):len(prefix)], `,"requests_served":`...)

	// The /v1/list export body: the canonical compact list JSON a
	// follower's HTTPSource parses back with core.ParseJSON.
	listBody, err := s.list.MarshalJSON()
	if err != nil {
		return err
	}
	s.respList = append(listBody, '\n')
	return nil
}

// partitionTail renders everything of a PartitionResponse after the
// embedded host: the verdict fields are enumerable per (policy, cell).
func partitionTail(sameSet, partByDefault bool, d browser.Decision, granted bool) []byte {
	tail := make([]byte, 0, 96)
	tail = append(tail, `,"same_set":`...)
	tail = strconv.AppendBool(tail, sameSet)
	tail = append(tail, `,"partitioned_by_default":`...)
	tail = strconv.AppendBool(tail, partByDefault)
	tail = append(tail, `,"decision":`...)
	tail = core.AppendJSONString(tail, d.String())
	tail = append(tail, `,"granted":`...)
	tail = strconv.AppendBool(tail, granted)
	return append(tail, '}')
}

// appendSameSetBody appends the SameSetResponse object for (a, b) minus
// the trailing newline, assembled from the echoed inputs and a tail.
func (s *Snapshot) appendSameSetBody(dst []byte, a, b string) []byte {
	dst = append(dst, `{"a":`...)
	dst = core.AppendJSONString(dst, a)
	dst = append(dst, `,"b":`...)
	dst = core.AppendJSONString(dst, b)
	sa, _, _, aok := s.list.Lookup(core.CanonicalHost(a))
	sb, _, _, bok := s.list.Lookup(core.CanonicalHost(b))
	if !aok || !bok || sa != sb {
		return append(dst, sameSetCrossTail...)
	}
	dst = append(dst, `,"same_set":true,"primary":`...)
	dst = core.AppendJSONString(dst, sa.Primary)
	return append(dst, '}')
}

// appendSameSet appends the full /v1/sameset response body for (a, b).
func (s *Snapshot) appendSameSet(dst []byte, a, b string) []byte {
	return append(s.appendSameSetBody(dst, a, b), '\n')
}

// appendSameSetBatch appends the batch /v1/sameset response body.
func (s *Snapshot) appendSameSetBatch(dst []byte, pairs [][2]string) []byte {
	dst = append(dst, `{"pairs":`...)
	dst = strconv.AppendInt(dst, int64(len(pairs)), 10)
	dst = append(dst, `,"results":[`...)
	for i, p := range pairs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = s.appendSameSetBody(dst, p[0], p[1])
	}
	return append(dst, ']', '}', '\n')
}

// appendSet appends the /v1/set response body for site, splicing the
// prebaked members array in whole.
func (s *Snapshot) appendSet(dst []byte, site string) []byte {
	dst = append(dst, `{"site":`...)
	dst = core.AppendJSONString(dst, site)
	set, pos, role, ok := s.list.Lookup(core.CanonicalHost(site))
	if !ok {
		return append(dst, setNotFoundTail...)
	}
	dst = append(dst, `,"found":true,"role":`...)
	dst = core.AppendJSONString(dst, role.String())
	dst = append(dst, `,"primary":`...)
	dst = core.AppendJSONString(dst, set.Primary)
	dst = append(dst, `,"members":`...)
	dst = append(dst, s.respMembers[pos]...)
	return append(dst, '}', '\n')
}

// appendPartitionBody appends the PartitionResponse object for (top,
// embedded) under policy pid minus the trailing newline. Pairs of list
// members and same-host pairs take a prebaked tail; a pair with an
// off-list host runs the live simulator on the canonical hosts and
// renders its verdict the same way.
func (s *Snapshot) appendPartitionBody(dst []byte, pid policyID, top, embedded string) []byte {
	ct, ce := core.CanonicalHost(top), core.CanonicalHost(embedded)
	ts, _, tr, tok := s.list.Lookup(ct)
	es, _, er, eok := s.list.Lookup(ce)
	var tail []byte
	switch {
	case ct == ce && tok:
		tail = s.respPartHostSame[pid]
	case ct == ce:
		tail = s.respPartHostCross[pid]
	case tok && eok && ts == es:
		tail = s.respPartSame[pid][tr][er]
	case tok && eok:
		tail = s.respPartCross[pid]
	}
	if tail == nil {
		info := &s.policies[pid]
		v := browser.EvaluateFresh(info.live, ct, ce)
		tail = partitionTail(false, info.partitionByDefault, v.Decision, v.Granted)
	}
	dst = append(dst, s.respPartHead[pid]...)
	dst = core.AppendJSONString(dst, top)
	dst = append(dst, `,"embedded":`...)
	dst = core.AppendJSONString(dst, embedded)
	return append(dst, tail...)
}

// appendPartition appends the full /v1/partition response body.
func (s *Snapshot) appendPartition(dst []byte, pid policyID, top, embedded string) []byte {
	return append(s.appendPartitionBody(dst, pid, top, embedded), '\n')
}

// appendPartitionBatch appends the /v1/partition/batch response body;
// pids[i] is the resolved policy of queries[i].
func (s *Snapshot) appendPartitionBatch(dst []byte, queries []PartitionQuery, pids []policyID) []byte {
	dst = append(dst, `{"queries":`...)
	dst = strconv.AppendInt(dst, int64(len(queries)), 10)
	dst = append(dst, `,"results":[`...)
	for i, pq := range queries {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = s.appendPartitionBody(dst, pids[i], pq.Top, pq.Embedded)
	}
	return append(dst, ']', '}', '\n')
}

// appendStats appends the /v1/stats response body around the two live
// server counters.
func (s *Snapshot) appendStats(dst []byte, requests, swaps uint64) []byte {
	dst = append(dst, s.respStatsPrefix...)
	dst = strconv.AppendUint(dst, requests, 10)
	dst = append(dst, `,"list_swaps":`...)
	dst = strconv.AppendUint(dst, swaps, 10)
	return append(dst, '}', '\n')
}
