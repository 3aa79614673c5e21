package serve

import (
	"fmt"
	"net/http"
	"strings"
)

// This file is the v1 API contract layer: the machine-readable error
// envelope every non-2xx response carries, and the conditional-GET
// (ETag / If-None-Match / If-Modified-Since) helpers the cache-validator
// plane is built from. Handlers never spell a status+code pair by hand;
// they go through the helper table below, so the envelope cannot drift
// per endpoint.

// The machine-readable error codes. Clients branch on these, never on
// the human-readable error text (which is free to change).
const (
	// codeBadRequest: the request shape is wrong — missing or conflicting
	// parameters, malformed values, an unknown query key, an undecodable
	// body.
	codeBadRequest = "bad_request"
	// codeNotFound: no such endpoint.
	codeNotFound = "not_found"
	// codeVersionNotFound: a well-formed version=/as_of=/diff spec that
	// the store does not retain.
	codeVersionNotFound = "version_not_found"
	// codeBatchTooLarge: a batch carried more than maxBatchPairs entries.
	codeBatchTooLarge = "batch_too_large"
	// codeBodyTooLarge: the request body exceeded maxBatchBody.
	codeBodyTooLarge = "body_too_large"
	// codeMethodNotAllowed: wrong HTTP method for the endpoint.
	codeMethodNotAllowed = "method_not_allowed"
	// codeInternal: the server failed to encode its own response.
	codeInternal = "internal"
)

// writeError writes the JSON error envelope: a human-readable message
// plus the machine-readable code.
func writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), Code: code}, false)
}

// writeNotModified answers a conditional request whose validator still
// matches: 304, no body, headers already set by the caller.
func writeNotModified(w http.ResponseWriter) {
	w.WriteHeader(http.StatusNotModified)
}

// etagMatches reports whether any entry of an If-None-Match header slice
// matches the snapshot's strong validator. Each header value may be a
// comma-separated list; weak-prefixed (`W/"..."`) entries compare by the
// quoted part (If-None-Match uses weak comparison per RFC 9110 §13.1.2),
// and `*` matches any current representation. Runs on the prebaked
// request path, so it scans without allocating (strings.Cut, TrimSpace,
// and TrimPrefix all return subslices).
//
//rws:hotpath
func etagMatches(values []string, etag string) bool {
	for i := 0; i < len(values); i++ {
		v := values[i]
		// Fast case first: a follower or cache echoes our ETag verbatim.
		if v == etag || v == "*" {
			return true
		}
		for v != "" {
			var item string
			item, v, _ = strings.Cut(v, ",")
			item = strings.TrimSpace(item)
			item = strings.TrimPrefix(item, "W/")
			if item == etag || item == "*" {
				return true
			}
		}
	}
	return false
}
