package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"rwskit/internal/core"
)

// This file is the response plane: the exact compact-JSON wire bytes
// of the answers that do not depend on the query (per-set /v1/set
// members, the stats body up to its live counters, the /v1/list export)
// are computed once at snapshot build time, and the append* encoders
// below assemble every sameset, set, partition and stats answer — for
// any retained version, single or batch — from those fragments, the
// snapshot's verdict tables and the echoed inputs into a pooled buffer
// and one w.Write: zero encodes, zero per-request allocations in steady
// state. They are the only encoders of those responses, held
// byte-identical to encoding/json over the documented response structs
// (TestPrebakedResponsesMatchLiveEncode); ?pretty=1 is json.Indent over
// the same bytes.

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

// bakeResponses fills the stats prefix and the /v1/list body after the
// build pass has encoded the member fragments.
func (s *Snapshot) bakeResponses() {
	// The stats body is constant per snapshot except the two live server
	// counters; bake everything up to requests_served and splice digits in
	// at request time.
	st := s.list.Stats()
	b := append([]byte(nil), `{"sets":`...)
	b = strconv.AppendInt(b, int64(st.Sets), 10)
	b = append(b, `,"sites":`...)
	b = strconv.AppendInt(b, int64(s.list.NumSites()), 10)
	b = append(b, `,"associated_sites":`...)
	b = strconv.AppendInt(b, int64(st.AssociatedSites), 10)
	b = append(b, `,"service_sites":`...)
	b = strconv.AppendInt(b, int64(st.ServiceSites), 10)
	b = append(b, `,"cctld_sites":`...)
	b = strconv.AppendInt(b, int64(st.CCTLDSites), 10)
	b = append(b, `,"mean_associated_per_set":`...)
	b = appendJSONFloat(b, st.MeanAssociatedPerSet)
	b = append(b, `,"snapshot_hash":`...)
	b = core.AppendJSONString(b, s.hash)
	s.respStatsPrefix = append(b, `,"requests_served":`...)

	// The /v1/list export body: the canonical compact list JSON a
	// follower's HTTPSource parses back with core.ParseJSON.
	s.respList = append(s.list.JSON(), '\n')
}

// appendJSONFloat appends f as encoding/json renders a float64:
// exponent form below 1e-6 and from 1e21 up, with e-09 shortened to e-9.
// f must be finite.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendPartitionTail appends everything of a PartitionResponse after
// the embedded host.
func appendPartitionTail(dst []byte, sameSet, partByDefault bool, v verdict) []byte {
	dst = append(dst, `,"same_set":`...)
	dst = strconv.AppendBool(dst, sameSet)
	dst = append(dst, `,"partitioned_by_default":`...)
	dst = strconv.AppendBool(dst, partByDefault)
	dst = append(dst, `,"decision":`...)
	dst = core.AppendJSONString(dst, v.decision.String())
	dst = append(dst, `,"granted":`...)
	dst = strconv.AppendBool(dst, v.granted)
	return append(dst, '}')
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
// embedded) under policy pid minus the trailing newline, with the
// verdict Partition reports.
func (s *Snapshot) appendPartitionBody(dst []byte, pid policyID, top, embedded string) []byte {
	v, sameSet := s.verdictFor(pid, top, embedded)
	info := &s.policies[pid]
	dst = append(dst, `{"policy":`...)
	dst = core.AppendJSONString(dst, info.name)
	dst = append(dst, `,"top":`...)
	dst = core.AppendJSONString(dst, top)
	dst = append(dst, `,"embedded":`...)
	dst = core.AppendJSONString(dst, embedded)
	return appendPartitionTail(dst, sameSet, info.partitionByDefault, v)
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
