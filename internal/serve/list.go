package serve

import (
	"bytes"
	"net/http"
	"time"
)

// handleList is the replication export: GET /v1/list serves the
// snapshot's canonical list JSON — the exact bytes core.ParseJSON
// round-trips, joined from the prebaked set objects with the baked
// Content-Length — with the cache validators that make a serve node an
// origin for other serve nodes. A follower started as
// `rws-serve -list http://leader/v1/list -poll 1s` tracks this endpoint
// through the stock source.HTTPSource conditional-GET loop: the strong
// ETag is the list content hash, so an unchanged leader answers 304 from
// etagMatches without touching the body, and the X-RWS-* headers carry
// the version provenance a follower needs to detect it is following and
// to measure swap-propagation lag.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var q query
	if !parse(w, r, paramsVersioned, &q) {
		return
	}
	snap, ver, ok := s.resolve(w, &q)
	if !ok {
		return
	}
	if ver.Hash == "" {
		// The current version: its provenance rides in the headers.
		ver, _ = s.store.versionOf(snap)
	}
	h := w.Header()
	// no-cache (not no-store): caches may hold the body but must
	// revalidate — exactly the 304 loop followers run. A poll interval is
	// the freshness contract here, not a TTL.
	h.Set("Cache-Control", "public, no-cache")
	h.Set("Last-Modified", ver.AsOf.UTC().Format(http.TimeFormat))
	h.Set("X-RWS-Version", snap.hash)
	h.Set("X-RWS-As-Of", ver.AsOf.UTC().Format(time.RFC3339Nano))
	h.Set("X-RWS-Swapped-At", ver.ObservedAt.UTC().Format(time.RFC3339Nano))
	if s.notModified(w, r, snap, ver) {
		return
	}
	if q.pretty() {
		var body bytes.Buffer
		snap.writeList(&body, nil)
		writeRawJSON(w, http.StatusOK, body.Bytes(), true)
		return
	}
	h["Content-Type"] = contentTypeJSON
	h["Content-Length"] = snap.respListLength
	rb := getRespBuf()
	rb.b = snap.writeList(w, rb.b)
	putRespBuf(rb)
}
