package serve

import (
	"net/http"
	"net/url"
	"strings"
	"time"

	"rwskit/internal/core"
)

// This file is the one query grammar: every endpoint scans its RawQuery
// once with parseQuery against a declared allowlist of keys, then picks
// the snapshot it answers from with resolve. A key outside the
// allowlist, a malformed %-escape, or a ';' outside a pairs= value is a
// bad_request envelope naming the offending segment and the supported
// keys; there is no lenient mode.

// qkey names one query parameter. The constants are in name order, the
// order allowlists list them in and report them to clients in.
type qkey uint8

const (
	keyA qkey = iota
	keyAsOf
	keyB
	keyEmbedded
	keyFrom
	keyGranularity
	keyPairs
	keyPolicy
	keyPretty
	keySite
	keyTo
	keyTop
	keyVersion
	numKeys
)

var keyNames = [numKeys]string{"a", "as_of", "b", "embedded", "from", "granularity", "pairs", "policy", "pretty", "site", "to", "top", "version"}

// The per-endpoint allowlists.
var (
	paramsSameSet   = []qkey{keyA, keyAsOf, keyB, keyPairs, keyPretty, keyVersion}
	paramsSet       = []qkey{keyAsOf, keyPretty, keySite, keyVersion}
	paramsPartition = []qkey{keyAsOf, keyEmbedded, keyPolicy, keyPretty, keyTop, keyVersion}
	paramsVersioned = []qkey{keyAsOf, keyPretty, keyVersion} // stats, list
	paramsDiff      = []qkey{keyFrom, keyPretty, keyTo}
	paramsChurn     = []qkey{keyFrom, keyGranularity, keyPretty, keyTo, keyTop}
	paramsPretty    = []qkey{keyPretty} // healthz, metrics, versions, partition batch
)

// query is one request's scanned parameters: per key, the value of its
// first occurrence — what url.Values.Get reports — or "" when absent.
type query struct {
	vals [numKeys]string
	seen uint16 // bit k: key k occurred
}

// pretty reports whether the request opted into indented output
// (?pretty, ?pretty=1 or ?pretty=true).
//
//rws:hotpath
func (q *query) pretty() bool {
	v := q.vals[keyPretty]
	return q.seen&(1<<keyPretty) != 0 && (v == "" || v == "1" || v == "true")
}

// parseQuery scans a raw query into q against the allowlist keys,
// without building url.Values. Segments split on '&' and empty ones are
// skipped; a segment holding '%' or '+' is unescaped (the only case that
// allocates); a repeated key keeps its first value. A key outside keys,
// a malformed escape, or a ';' anywhere but in a pairs= value (where it
// separates the pairs) stops the scan: parseQuery returns that segment
// and false.
//
//rws:hotpath
func parseQuery(raw string, keys []qkey, q *query) (bad string, ok bool) {
	for raw != "" {
		var seg string
		seg, raw, _ = strings.Cut(raw, "&")
		if seg == "" {
			continue
		}
		k, v, _ := strings.Cut(seg, "=")
		if strings.IndexByte(seg, '%') >= 0 || strings.IndexByte(seg, '+') >= 0 {
			var kerr, verr error
			k, kerr = url.QueryUnescape(k) //rws:coldpath
			v, verr = url.QueryUnescape(v) //rws:coldpath
			if kerr != nil || verr != nil {
				return seg, false
			}
		}
		i := 0
		for i < len(keys) && keyNames[keys[i]] != k {
			i++
		}
		if i == len(keys) || (keys[i] != keyPairs && strings.IndexByte(seg, ';') >= 0) {
			return seg, false
		}
		if key := keys[i]; q.seen&(1<<key) == 0 {
			q.vals[key] = v
			q.seen |= 1 << key
		}
	}
	return "", true
}

// rejectQuery writes the bad_request envelope for a segment parseQuery
// refused, saying what is wrong with it.
func rejectQuery(w http.ResponseWriter, bad string, keys []qkey) {
	k, v, _ := strings.Cut(bad, "=")
	k, kerr := url.QueryUnescape(k)
	_, verr := url.QueryUnescape(v)
	switch {
	case kerr != nil || verr != nil:
		badRequest(w, "query segment %q: malformed %%-escape", bad)
	case k != "pairs" && strings.Contains(bad, ";"):
		badRequest(w, "query segment %q: ';' only separates the entries of pairs=", bad)
	default:
		names := make([]string, len(keys))
		for i, key := range keys {
			names[i] = keyNames[key]
		}
		badRequest(w, "unknown query parameter %q (supported: %s)", k, strings.Join(names, ", "))
	}
}

// parse is the front of every GET endpoint: the method check and the
// query scan into q. On failure it writes the error envelope and reports
// false.
func parse(w http.ResponseWriter, r *http.Request, keys []qkey, q *query) bool {
	if !requireGET(w, r) {
		return false
	}
	bad, ok := parseQuery(r.URL.RawQuery, keys, q)
	if !ok {
		rejectQuery(w, bad, keys)
	}
	return ok
}

// resolve picks the snapshot a request is answered from: the current
// version — one lock-free load, its descriptor left zero until a
// conditional request or /v1/list needs it — unless version= or as_of=
// names a retained one. On failure it writes the error envelope and
// reports false. Success counts one hit for the version (/v1/metrics).
func (s *Server) resolve(w http.ResponseWriter, q *query) (*Snapshot, core.Version, bool) {
	version, asOf := q.vals[keyVersion], q.vals[keyAsOf]
	var (
		snap *Snapshot
		ver  core.Version
		err  error
	)
	switch {
	case version == "" && asOf == "":
		snap = s.store.Current()
	case version != "" && asOf != "":
		badRequest(w, "use either version= or as_of=, not both")
		return nil, core.Version{}, false
	case version != "":
		snap, ver, err = s.store.ByHash(version)
	default:
		t, ok := parseAsOf(asOf)
		if !ok {
			badRequest(w, "as_of %q: want 2006-01, 2006-01-02, or RFC 3339", asOf)
			return nil, core.Version{}, false
		}
		snap, ver, err = s.store.AsOf(t)
	}
	if err != nil {
		writeResolveError(w, err)
		return nil, core.Version{}, false
	}
	snap.requests.Add(1)
	return snap, ver, true
}

// notModified installs the snapshot's strong validator and answers a
// still-matching conditional request with 304, reporting true when the
// handler is done. If-None-Match wins when present (RFC 9110 §13.2.2);
// otherwise If-Modified-Since compares against the version's as-of time
// at second granularity (HTTP dates carry no sub-second precision). A
// current-version request (zero ver) looks its descriptor up only when
// that header is present, so the plain path takes no lock. Called after
// request validation — a malformed request stays 400, since
// preconditions apply only to requests that would otherwise succeed —
// and before the body is assembled.
func (s *Server) notModified(w http.ResponseWriter, r *http.Request, snap *Snapshot, ver core.Version) bool {
	w.Header()["Etag"] = snap.etagHeader
	if inm, ok := r.Header["If-None-Match"]; ok {
		if !etagMatches(inm, snap.etag) {
			return false
		}
		writeNotModified(w)
		return true
	}
	// Direct map reads: net/http canonicalizes incoming header keys, and
	// Header.Get would canonicalize the key again on every request.
	ims := r.Header["If-Modified-Since"]
	if len(ims) == 0 {
		return false
	}
	if ver.Hash == "" {
		ver, _ = s.store.versionOf(snap)
	}
	t, err := http.ParseTime(ims[0])
	if err != nil || ver.AsOf.IsZero() || ver.AsOf.Truncate(time.Second).After(t) {
		return false
	}
	writeNotModified(w)
	return true
}
