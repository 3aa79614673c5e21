// Package serve exposes the hot RWS read path over HTTP: relatedness
// queries, set lookups, and storage-partitioning verdicts against a live
// list snapshot. It is the serving layer the ROADMAP's "millions of
// users" north star asks for on top of the rwskit core.
//
// Queries are answered from a Snapshot — a precomputed query plane
// (per-policy partition-verdict table, prebaked response bytes,
// composition stats) derived from a *core.List in one serial pass when
// Store.AddList installs it; hosts resolve through the list's own index.
// A build cannot fail, so every delivered revision installs. Each
// partition verdict is stored once, in the verdict table, and chosen in
// one place (Snapshot.verdictFor) for the typed and the encoded answer.
// Snapshots live in a Store: a bounded version store keyed by list
// content hash that retains the last N revisions, so the list can be
// hot-swapped (e.g. on SIGHUP, on a -poll tick, or when upstream
// publishes a new related_website_sets.JSON) without pausing traffic —
// in-flight requests finish against the snapshot they started with, new
// requests see the new one — and superseded revisions stay queryable.
// The current version is answered from a lock-free atomic pointer, so
// the hot path costs what the single-snapshot server cost; handlers
// allocate nothing shared; per-endpoint metrics are plain atomics.
//
// Endpoints:
//
//	GET  /healthz                                   liveness probe
//	GET  /v1/sameset?a=SITE&b=SITE                  are two sites related?
//	GET  /v1/sameset?pairs=a1,b1;a2,b2;...          batch form
//	GET  /v1/set?site=SITE                          the set a site belongs to
//	GET  /v1/partition?top=SITE&embedded=SITE[&policy=P]
//	                                                storage-access verdict
//	POST /v1/partition/batch                        batch verdicts (JSON body)
//	GET  /v1/stats                                  list composition + server counters
//	GET  /v1/list                                   canonical list JSON export (replication origin)
//	GET  /v1/metrics                                per-endpoint request/latency/error counters
//	GET  /v1/versions                               the retained list versions
//	GET  /v1/diff?from=SPEC&to=SPEC                 member-level diff between two versions
//	GET  /v1/churn?from=SPEC&to=SPEC&granularity=G  churn rollup over the version chain
//
// sameset, set, partition, and stats accept version=HASHPREFIX (pin the
// query to one retained version) or as_of=TIME ("2023-04", "2023-04-26",
// or RFC 3339: the version in force at that instant). The parameter is
// resolved once per request to a snapshot; the precomputed tables then
// answer exactly as for current-version queries. diff accepts either
// spelling (plus "current") for from= and to=.
//
// Host parameters accept any legitimate spelling — scheme prefix, :port
// suffix, trailing dot, mixed case — and are canonicalized before lookup.
//
// Every endpoint scans its query once against an allowlist of keys
// (params.go) — an unknown key is a bad_request — and each hot endpoint
// has one answer path: parse, resolve the snapshot, evaluate the
// conditional headers, append the response from the prebaked fragments
// (respbake.go), write.
//
// The package is a JSON API end to end: every response body, success or
// error, goes through the envelope helpers (TestNotFoundJSON,
// TestErrorEnvelopeCodes, TestBadRequests and TestChurnErrors hold each
// error path to it).
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rwskit/internal/core"
	"rwskit/internal/source"
)

// endpointID indexes the per-endpoint metrics table.
type endpointID int

// The instrumented endpoints. epOther covers unmatched paths (the JSON
// 404 handler).
const (
	epHealthz endpointID = iota
	epSameSet
	epSet
	epPartition
	epPartitionBatch
	epStats
	epList
	epMetrics
	epVersions
	epDiff
	epChurn
	epOther
	numEndpoints
)

var endpointNames = [numEndpoints]string{
	epHealthz:        "/healthz",
	epSameSet:        "/v1/sameset",
	epSet:            "/v1/set",
	epPartition:      "/v1/partition",
	epPartitionBatch: "/v1/partition/batch",
	epStats:          "/v1/stats",
	epList:           "/v1/list",
	epMetrics:        "/v1/metrics",
	epVersions:       "/v1/versions",
	epDiff:           "/v1/diff",
	epChurn:          "/v1/churn",
	epOther:          "other",
}

// endpointCounters is one endpoint's metrics. All fields are atomics so
// the read path takes no locks.
type endpointCounters struct {
	requests atomic.Uint64 // counted on entry, so a request in flight is included
	errors   atomic.Uint64 // responses with status >= 400
	nanos    atomic.Uint64 // cumulative handler latency
}

// maxBatchPairs bounds a single batch request, so one query cannot pin a
// handler goroutine arbitrarily long.
const maxBatchPairs = 1000

// maxBatchBody bounds the /v1/partition/batch request body.
const maxBatchBody = 1 << 20

// Server answers RWS queries against a hot-swappable version store of
// precomputed snapshots.
type Server struct {
	store   *Store
	metrics [numEndpoints]endpointCounters
	mux     *http.ServeMux

	// repl tracks replication state when this node follows a leader's
	// /v1/list export; nil fields in /v1/metrics otherwise.
	repl replState
}

// New returns a server answering queries against list, precomputing the
// query plane once up front. The backing store retains DefaultRetain
// versions; use NewFromStore to choose the capacity or preload history.
func New(list *core.List) *Server {
	st := NewStore(DefaultRetain)
	// AddList's error is always nil: a snapshot build cannot fail.
	st.AddList(list, core.Version{Source: "boot"})
	return NewFromStore(st)
}

// NewFromStore returns a server answering queries from st, which must
// hold at least one version (the current one). The caller keeps a
// reference to st and may AddList to it under traffic; rws-serve -timeline
// preloads the monthly study-window snapshots this way.
func NewFromStore(st *Store) *Server {
	if st.Current() == nil {
		panic("serve: NewFromStore requires a store with a current version")
	}
	s := &Server{store: st}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.instrument(epHealthz, s.handleHealthz))
	mux.HandleFunc("/v1/sameset", s.instrument(epSameSet, s.handleSameSet))
	mux.HandleFunc("/v1/set", s.instrument(epSet, s.handleSet))
	mux.HandleFunc("/v1/partition", s.instrument(epPartition, s.handlePartition))
	mux.HandleFunc("/v1/partition/batch", s.instrument(epPartitionBatch, s.handlePartitionBatch))
	mux.HandleFunc("/v1/stats", s.instrument(epStats, s.handleStats))
	mux.HandleFunc("/v1/list", s.instrument(epList, s.handleList))
	mux.HandleFunc("/v1/metrics", s.instrument(epMetrics, s.handleMetrics))
	mux.HandleFunc("/v1/versions", s.instrument(epVersions, s.handleVersions))
	mux.HandleFunc("/v1/diff", s.instrument(epDiff, s.handleDiff))
	mux.HandleFunc("/v1/churn", s.instrument(epChurn, s.handleChurn))
	mux.HandleFunc("/", s.instrument(epOther, s.handleNotFound))
	s.mux = mux
	return s
}

// Snapshot returns the precomputed plane currently serving unversioned
// queries.
func (s *Server) Snapshot() *Snapshot { return s.store.Current() }

// SwapDeliver returns a source.Watcher delivery callback that installs
// each delivered revision into the version store (Meta → Version, whose
// Hash spares the build a re-hash) and logs to logw its diff from the
// version served before the install. The snapshot precompute and the
// diff run on the watcher goroutine, never on the request path.
func (s *Server) SwapDeliver(logw io.Writer) func(source.Swap) {
	return func(sw source.Swap) {
		prev := s.store.Current()
		snap, _ := s.store.AddList(sw.List, sw.Meta.Version()) // the error is always nil
		if sw.Meta.Follows() {
			s.RecordReplicationSwap(sw.Meta)
		}
		// The diff is taken after the install, from the version served
		// before it, so the new ETag is never held back by a diff. It fills
		// the memo's superseded→current slot, the pair /v1/diff and churn
		// walks ask for first.
		fmt.Fprintf(logw, "serve: swapped list from %s (%d sets, hash %.12s): %s\n",
			sw.Meta.Location, sw.List.NumSets(), snap.hash, s.store.Diff(prev, snap).Summary())
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// requestsServed sums the per-endpoint request counters: every request
// that reached a handler, the one asking included. A request ServeMux
// answers itself, such as the redirect to a cleaned path, reaches no
// handler and is not counted.
func (s *Server) requestsServed() uint64 {
	var n uint64
	for i := range s.metrics {
		n += s.metrics[i].requests.Load()
	}
	return n
}

// statusWriter records the status code a handler wrote, for the error
// counters. Instances are pooled: instrument resets and reuses them so
// the wrapper itself costs no per-request allocation.
type statusWriter struct {
	http.ResponseWriter
	status int
}

var statusWriterPool = sync.Pool{New: func() any { return new(statusWriter) }}

// WriteHeader records then forwards the status; as middleware plumbing
// it is part of the envelope implementation.
func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// instrument wraps a handler with the per-endpoint counters: requests,
// cumulative latency, and error responses.
func (s *Server) instrument(id endpointID, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m := &s.metrics[id]
		m.requests.Add(1)
		sw := statusWriterPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.status = w, http.StatusOK
		h(sw, r)
		m.nanos.Add(uint64(time.Since(start).Nanoseconds()))
		if sw.status >= 400 {
			m.errors.Add(1)
		}
		sw.ResponseWriter = nil
		statusWriterPool.Put(sw)
	}
}

// errorBody is the JSON error envelope: a human-readable message plus
// the machine-readable code clients branch on (the constants in
// envelope.go).
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// writeJSON encodes v and writes it, compact or (pretty) indented. It
// serves the endpoints whose answers are not enumerable — metrics,
// versions, diff, churn, healthz — and the error envelope. The encode
// buffer is pooled and reused across requests. Encoding happens fully
// before any byte reaches the wire, so an encode failure surfaces as a
// 500 JSON envelope instead of a truncated 200. Write errors after that
// mean the client went away; there is nothing left to surface to it.
func writeJSON(w http.ResponseWriter, status int, v any, pretty bool) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		body, _ := json.Marshal(errorBody{Error: "encoding response: " + err.Error(), Code: codeInternal})
		buf.Write(body)
		buf.WriteByte('\n')
	}
	writeRawJSON(w, status, buf.Bytes(), pretty)
	if buf.Cap() <= maxRetainedBuf {
		jsonBufPool.Put(buf)
	}
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeError(w, http.StatusBadRequest, codeBadRequest, format, args...)
}

// requireGET rejects non-GET methods; the read path is side-effect free.
func requireGET(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "method not allowed")
		return false
	}
	return true
}

// writeResolveError maps a version-resolution failure to the JSON error
// contract: unknown versions are 404 version_not_found (the spec was
// well-formed, the store just doesn't hold it), everything else is a 400
// bad_request.
func writeResolveError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrVersionNotFound) {
		writeError(w, http.StatusNotFound, codeVersionNotFound, "%v", err)
		return
	}
	writeError(w, http.StatusBadRequest, codeBadRequest, "%v", err)
}

// handleNotFound keeps unmatched paths inside the JSON contract instead
// of falling through to a plain-text 404.
func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, codeNotFound, "no such endpoint: %s", r.URL.Path)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var q query
	if !parse(w, r, paramsPretty, &q) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":   true,
		"sets": s.Snapshot().NumSets(),
	}, q.pretty())
}

// SameSetResponse answers /v1/sameset.
type SameSetResponse struct {
	A       string `json:"a"`
	B       string `json:"b"`
	SameSet bool   `json:"same_set"`
	// Primary is the shared set's primary when SameSet is true.
	Primary string `json:"primary,omitempty"`
}

// SameSetBatchResponse answers the batch form of /v1/sameset. Results are
// in input order, so the output is byte-deterministic for a given request
// and snapshot.
type SameSetBatchResponse struct {
	Pairs   int               `json:"pairs"`
	Results []SameSetResponse `json:"results"`
}

// errTooManyPairs marks a batch that exceeded maxBatchPairs, so the
// handler can map it to the batch_too_large error code while the message
// text stays exactly what parsePairs wrote.
var errTooManyPairs = errors.New("too many pairs")

// parsePairs parses the pairs parameter: semicolon-separated a,b pairs.
// Harmless sloppiness is tolerated — empty segments (a trailing or
// doubled ';') are skipped and each side is space-trimmed — while a
// genuinely malformed pair still reports its position and text.
func parsePairs(raw string) ([][2]string, error) {
	// Walk the segments in place and cap the prealloc at the pair bound:
	// a query of a million ';'s must not allocate a million substrings
	// (or entries) before being rejected.
	out := make([][2]string, 0, min(strings.Count(raw, ";")+1, maxBatchPairs))
	for i, rest, more := 0, raw, true; more; i++ {
		var item string
		item, rest, more = strings.Cut(rest, ";")
		if strings.TrimSpace(item) == "" {
			continue
		}
		// The cap counts real pairs, not raw segments: exactly
		// maxBatchPairs pairs plus a tolerated trailing ';' must parse.
		if len(out) == maxBatchPairs {
			return nil, fmt.Errorf("%w: more than %d", errTooManyPairs, maxBatchPairs)
		}
		a, b, ok := strings.Cut(item, ",")
		a, b = strings.TrimSpace(a), strings.TrimSpace(b)
		if !ok || a == "" || b == "" {
			return nil, fmt.Errorf("pair %d: want \"a,b\", got %q", i, item)
		}
		out = append(out, [2]string{a, b})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("pairs has no a,b entries")
	}
	return out, nil
}

func (s *Server) handleSameSet(w http.ResponseWriter, r *http.Request) {
	var q query
	if !parse(w, r, paramsSameSet, &q) {
		return
	}
	a, b := q.vals[keyA], q.vals[keyB]
	var pairs [][2]string
	if raw := q.vals[keyPairs]; raw != "" {
		if a != "" || b != "" {
			badRequest(w, "use either pairs= or a=/b=, not both")
			return
		}
		var err error
		if pairs, err = parsePairs(raw); err != nil {
			code := codeBadRequest
			if errors.Is(err, errTooManyPairs) {
				code = codeBatchTooLarge
			}
			writeError(w, http.StatusBadRequest, code, "%v", err)
			return
		}
	} else if a == "" || b == "" {
		badRequest(w, "both a and b query parameters are required")
		return
	}
	snap, ver, ok := s.resolve(w, &q)
	if !ok || s.notModified(w, r, snap, ver) {
		return
	}
	rb := getRespBuf()
	if pairs != nil {
		rb.b = snap.appendSameSetBatch(rb.b[:0], pairs)
	} else {
		rb.b = snap.appendSameSet(rb.b[:0], a, b)
	}
	writeResp(w, rb, q.pretty())
}

// SetMember is one member in a /v1/set response.
type SetMember struct {
	Site    string `json:"site"`
	Role    string `json:"role"`
	AliasOf string `json:"alias_of,omitempty"`
}

// SetResponse answers /v1/set.
type SetResponse struct {
	Site    string      `json:"site"`
	Found   bool        `json:"found"`
	Role    string      `json:"role,omitempty"`
	Primary string      `json:"primary,omitempty"`
	Members []SetMember `json:"members,omitempty"`
}

func (s *Server) handleSet(w http.ResponseWriter, r *http.Request) {
	var q query
	if !parse(w, r, paramsSet, &q) {
		return
	}
	site := q.vals[keySite]
	if site == "" {
		badRequest(w, "site query parameter is required")
		return
	}
	snap, ver, ok := s.resolve(w, &q)
	if !ok || s.notModified(w, r, snap, ver) {
		return
	}
	rb := getRespBuf()
	rb.b = snap.appendSet(rb.b[:0], site)
	writeResp(w, rb, q.pretty())
}

// PartitionResponse answers /v1/partition: the storage semantics a fresh
// profile under the named vendor policy would apply to embedded loaded
// under top, after the user lands on top (a top-level visit, the state
// every embedded storage-access request starts from).
type PartitionResponse struct {
	Policy   string `json:"policy"`
	Top      string `json:"top"`
	Embedded string `json:"embedded"`
	SameSet  bool   `json:"same_set"`
	// PartitionedByDefault reports whether the policy partitions
	// third-party storage before any grant.
	PartitionedByDefault bool `json:"partitioned_by_default"`
	// Decision is the requestStorageAccess outcome
	// (denied, granted-auto, granted-by-prompt, denied-by-prompt).
	Decision string `json:"decision"`
	// Granted reports whether the frame ends up with unpartitioned access.
	Granted bool `json:"granted"`
}

func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	var q query
	if !parse(w, r, paramsPartition, &q) {
		return
	}
	top, embedded := q.vals[keyTop], q.vals[keyEmbedded]
	if top == "" || embedded == "" {
		badRequest(w, "both top and embedded query parameters are required")
		return
	}
	pid, err := policyFor(q.vals[keyPolicy])
	if err != nil {
		badRequest(w, "%v", err)
		return
	}
	snap, ver, ok := s.resolve(w, &q)
	if !ok || s.notModified(w, r, snap, ver) {
		return
	}
	rb := getRespBuf()
	rb.b = snap.appendPartition(rb.b[:0], pid, top, embedded)
	writeResp(w, rb, q.pretty())
}

// PartitionQuery is one query in a /v1/partition/batch request. Policy
// overrides the request-level default for this query only.
type PartitionQuery struct {
	Top      string `json:"top"`
	Embedded string `json:"embedded"`
	Policy   string `json:"policy,omitempty"`
}

// PartitionBatchRequest is the POST /v1/partition/batch body.
type PartitionBatchRequest struct {
	// Policy is the default policy for queries that do not name their own.
	Policy  string           `json:"policy,omitempty"`
	Queries []PartitionQuery `json:"queries"`
}

// PartitionBatchResponse answers /v1/partition/batch, results in query
// order.
type PartitionBatchResponse struct {
	Queries int                 `json:"queries"`
	Results []PartitionResponse `json:"results"`
}

func (s *Server) handlePartitionBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "method not allowed (POST a JSON body)")
		return
	}
	var q query
	if bad, ok := parseQuery(r.URL.RawQuery, paramsPretty, &q); !ok {
		rejectQuery(w, bad, paramsPretty)
		return
	}
	var req PartitionBatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeError(w, http.StatusRequestEntityTooLarge, codeBodyTooLarge, "%v", err)
			return
		}
		badRequest(w, "decoding request body: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		badRequest(w, "queries must be non-empty")
		return
	}
	if len(req.Queries) > maxBatchPairs {
		writeError(w, http.StatusBadRequest, codeBatchTooLarge, "too many queries: %d > %d", len(req.Queries), maxBatchPairs)
		return
	}
	pids := make([]policyID, len(req.Queries))
	for i, pq := range req.Queries {
		if pq.Top == "" || pq.Embedded == "" {
			badRequest(w, "query %d: both top and embedded are required", i)
			return
		}
		policy := pq.Policy
		if policy == "" {
			policy = req.Policy
		}
		var err error
		if pids[i], err = policyFor(policy); err != nil {
			badRequest(w, "query %d: %v", i, err)
			return
		}
	}
	snap, _, _ := s.resolve(w, &q) // no version key in the allowlist: always the current version
	rb := getRespBuf()
	rb.b = snap.appendPartitionBatch(rb.b[:0], req.Queries, pids)
	writeResp(w, rb, q.pretty())
}

// StatsResponse answers /v1/stats.
type StatsResponse struct {
	Sets            int     `json:"sets"`
	Sites           int     `json:"sites"`
	AssociatedSites int     `json:"associated_sites"`
	ServiceSites    int     `json:"service_sites"`
	CCTLDSites      int     `json:"cctld_sites"`
	MeanAssociated  float64 `json:"mean_associated_per_set"`
	SnapshotHash    string  `json:"snapshot_hash"`
	Requests        uint64  `json:"requests_served"`
	ListSwaps       uint64  `json:"list_swaps"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var q query
	if !parse(w, r, paramsVersioned, &q) {
		return
	}
	snap, ver, ok := s.resolve(w, &q)
	// The stats ETag covers the snapshot-derived fields; the live counters
	// ride along and are not part of the validator (a cache revalidating
	// an unchanged snapshot keeps its counter values).
	if !ok || s.notModified(w, r, snap, ver) {
		return
	}
	rb := getRespBuf()
	rb.b = snap.appendStats(rb.b[:0], s.requestsServed(), s.store.Swaps())
	writeResp(w, rb, q.pretty())
}

// EndpointMetrics is one endpoint's counters in a /v1/metrics response.
type EndpointMetrics struct {
	Endpoint string `json:"endpoint"`
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	// TotalLatencyMicros is the cumulative handler time.
	TotalLatencyMicros uint64 `json:"total_latency_micros"`
	// MeanLatencyMicros is TotalLatencyMicros / Requests (0 when idle).
	MeanLatencyMicros float64 `json:"mean_latency_micros"`
}

// VersionHits reports one retained version's request count in a
// /v1/metrics response.
type VersionHits struct {
	Hash     string    `json:"hash"`
	Source   string    `json:"source"`
	AsOf     time.Time `json:"as_of"`
	Requests uint64    `json:"requests"`
	Current  bool      `json:"current,omitempty"`
}

// MetricsResponse answers /v1/metrics.
type MetricsResponse struct {
	// Requests is the sum of the Endpoints' request counters.
	Requests     uint64 `json:"requests_served"`
	ListSwaps    uint64 `json:"list_swaps"`
	SnapshotHash string `json:"snapshot_hash"`
	// SnapshotBuild reports how long the snapshot named by SnapshotHash
	// took to build.
	SnapshotBuild BuildInfo `json:"snapshot_build"`
	// VersionsRetained / VersionsCapacity is the version-store occupancy.
	VersionsRetained int               `json:"versions_retained"`
	VersionsCapacity int               `json:"versions_capacity"`
	DiffCache        DiffCacheMetrics  `json:"diff_cache"`
	VersionHits      []VersionHits     `json:"version_hits"`
	Endpoints        []EndpointMetrics `json:"endpoints"`
	// Replication is the follower state: which leader /v1/list this node
	// tracks, the last-synced version hash, and the swap-propagation lag.
	// Absent on nodes that do not follow an upstream.
	Replication *ReplicationMetrics `json:"replication,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var q query
	if !parse(w, r, paramsPretty, &q) {
		return
	}
	cur := s.Snapshot() // one load: the hash and build info must name the same snapshot
	infos := s.store.Versions()
	resp := MetricsResponse{
		ListSwaps:        s.store.Swaps(),
		SnapshotHash:     cur.hash,
		SnapshotBuild:    cur.info,
		VersionsRetained: s.store.Len(),
		VersionsCapacity: s.store.Cap(),
		DiffCache:        s.store.diffMetrics(),
		VersionHits:      make([]VersionHits, 0, len(infos)),
		Endpoints:        make([]EndpointMetrics, 0, numEndpoints),
		Replication:      s.Replication(),
	}
	for _, vi := range infos {
		resp.VersionHits = append(resp.VersionHits, VersionHits{
			Hash:     vi.Version.Hash,
			Source:   vi.Version.Source,
			AsOf:     vi.Version.AsOf,
			Requests: vi.Requests,
			Current:  vi.Current,
		})
	}
	for id := endpointID(0); id < numEndpoints; id++ {
		m := &s.metrics[id]
		em := EndpointMetrics{
			Endpoint:           endpointNames[id],
			Requests:           m.requests.Load(),
			Errors:             m.errors.Load(),
			TotalLatencyMicros: m.nanos.Load() / 1000,
		}
		if em.Requests > 0 {
			em.MeanLatencyMicros = float64(em.TotalLatencyMicros) / float64(em.Requests)
		}
		// requests_served is the sum of the counters listed here, so the
		// response agrees with itself under concurrent traffic.
		resp.Requests += em.Requests
		resp.Endpoints = append(resp.Endpoints, em)
	}
	writeJSON(w, http.StatusOK, resp, q.pretty())
}

// VersionResponse describes one retained version in /v1/versions and in
// the from/to echo of /v1/diff.
type VersionResponse struct {
	Hash       string    `json:"hash"`
	Source     string    `json:"source"`
	ObservedAt time.Time `json:"observed_at"`
	AsOf       time.Time `json:"as_of"`
	Sets       int       `json:"sets"`
	Sites      int       `json:"sites"`
	Current    bool      `json:"current,omitempty"`
}

// VersionsResponse answers /v1/versions, oldest version first.
type VersionsResponse struct {
	Retained int               `json:"retained"`
	Capacity int               `json:"capacity"`
	Versions []VersionResponse `json:"versions"`
}

func versionResponse(vi VersionInfo) VersionResponse {
	return VersionResponse{
		Hash:       vi.Version.Hash,
		Source:     vi.Version.Source,
		ObservedAt: vi.Version.ObservedAt,
		AsOf:       vi.Version.AsOf,
		Sets:       vi.Sets,
		Sites:      vi.Sites,
		Current:    vi.Current,
	}
}

func (s *Server) handleVersions(w http.ResponseWriter, r *http.Request) {
	var q query
	if !parse(w, r, paramsPretty, &q) {
		return
	}
	infos := s.store.Versions()
	resp := VersionsResponse{
		Retained: len(infos),
		Capacity: s.store.Cap(),
		Versions: make([]VersionResponse, 0, len(infos)),
	}
	for _, vi := range infos {
		resp.Versions = append(resp.Versions, versionResponse(vi))
	}
	writeJSON(w, http.StatusOK, resp, q.pretty())
}

// DiffResponse answers /v1/diff: the member-level changes from one
// retained version to another, exactly core.DiffLists over the two
// retained lists.
type DiffResponse struct {
	From           VersionResponse `json:"from"`
	To             VersionResponse `json:"to"`
	Empty          bool            `json:"empty"`
	Summary        string          `json:"summary"`
	AddedSets      []string        `json:"added_sets,omitempty"`
	RemovedSets    []string        `json:"removed_sets,omitempty"`
	AddedMembers   []string        `json:"added_members,omitempty"`
	RemovedMembers []string        `json:"removed_members,omitempty"`
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	var q query
	if !parse(w, r, paramsDiff, &q) {
		return
	}
	from, to := q.vals[keyFrom], q.vals[keyTo]
	if from == "" || to == "" {
		badRequest(w, "both from and to query parameters are required (a version hash prefix, an as-of time, or \"current\")")
		return
	}
	fromSnap, fromVer, err := s.store.Resolve(from)
	if err != nil {
		writeResolveError(w, fmt.Errorf("from: %w", err))
		return
	}
	toSnap, toVer, err := s.store.Resolve(to)
	if err != nil {
		writeResolveError(w, fmt.Errorf("to: %w", err))
		return
	}
	fromSnap.requests.Add(1)
	toSnap.requests.Add(1)
	// The diff plane is memoized: the first request per (from, to) hash
	// pair computes DiffLists, every later one is a cache hit.
	d := s.store.Diff(fromSnap, toSnap)
	writeJSON(w, http.StatusOK, DiffResponse{
		From:           versionResponse(VersionInfo{Version: fromVer, Sets: fromSnap.NumSets(), Sites: fromSnap.NumSites()}),
		To:             versionResponse(VersionInfo{Version: toVer, Sets: toSnap.NumSets(), Sites: toSnap.NumSites()}),
		Empty:          d.Empty(),
		Summary:        d.Summary(),
		AddedSets:      d.AddedSets,
		RemovedSets:    d.RemovedSets,
		AddedMembers:   d.AddedMembers,
		RemovedMembers: d.RemovedMembers,
	}, q.pretty())
}
