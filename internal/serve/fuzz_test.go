package serve

import (
	"net/url"
	"slices"
	"strings"
	"testing"
)

// FuzzParsePairs holds the batch pairs= parser to its contract on
// arbitrary input: it never panics; on success it returns between 1 and
// maxBatchPairs pairs whose sides are non-empty and whitespace-trimmed,
// with no ';' on either side and no ',' on the a side; and the parse is
// a projection — rejoining the parsed pairs and reparsing yields exactly
// the same result. The seed corpus under testdata/fuzz pins the batch
// spellings the PR 2/3 handler tests special-cased (trailing ';', empty
// segments, embedded whitespace, commas in the b side, the 1000-pair
// cap).
func FuzzParsePairs(f *testing.F) {
	seeds := []string{
		"a,b",
		"a,b;c,d",
		" a , b ; ",
		"a,b;;c,d",
		";;;",
		"",
		"a;b",
		"a,b,c",
		",a",
		"a,",
		"office.com,live.com;office.com,github.com",
		"https://example.com:443/,EXAMPLE.com.",
		strings.Repeat("x,y;", maxBatchPairs+1),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		pairs, err := parsePairs(raw)
		if err != nil {
			return
		}
		if len(pairs) == 0 || len(pairs) > maxBatchPairs {
			t.Fatalf("parsePairs(%q) returned %d pairs outside [1, %d]", raw, len(pairs), maxBatchPairs)
		}
		for i, p := range pairs {
			for side, v := range p {
				if v == "" {
					t.Fatalf("pair %d side %d of %q is empty", i, side, raw)
				}
				if strings.TrimSpace(v) != v {
					t.Fatalf("pair %d side %d of %q is untrimmed: %q", i, side, raw, v)
				}
				if strings.ContainsRune(v, ';') {
					t.Fatalf("pair %d side %d of %q contains ';': %q", i, side, raw, v)
				}
			}
			if strings.ContainsRune(p[0], ',') {
				t.Fatalf("pair %d a-side of %q contains ',': %q", i, raw, p[0])
			}
		}
		// Projection: rendering the parsed pairs back to the wire format
		// and reparsing must be the identity.
		parts := make([]string, len(pairs))
		for i, p := range pairs {
			parts[i] = p[0] + "," + p[1]
		}
		again, err := parsePairs(strings.Join(parts, ";"))
		if err != nil {
			t.Fatalf("reparse of normalized %q failed: %v", raw, err)
		}
		if len(again) != len(pairs) {
			t.Fatalf("reparse of %q returned %d pairs, want %d", raw, len(again), len(pairs))
		}
		for i := range again {
			if again[i] != pairs[i] {
				t.Fatalf("reparse of %q pair %d = %v, want %v", raw, i, again[i], pairs[i])
			}
		}
	})
}

// FuzzQueryScan holds the query scanner to net/url: for any raw query
// without ';' (which url.ParseQuery rejects and parseQuery admits inside
// pairs= only), parseQuery rejects the query exactly when url.ParseQuery
// errors or returns a key outside the allowlist, and otherwise reports
// each allowlisted key as url.ParseQuery(raw) does: the same Get value
// and the same presence.
func FuzzQueryScan(f *testing.F) {
	for _, seed := range []string{
		"a=bild.de&b=autobild.de",
		"b=x&a=y&pretty",
		"a=%41&b=B+C&pretty=1",
		"a=1&a=2&b=3",
		"a=%zz&b=x",
		"%61=x&b=y",
		"bogus=1",
		"=x",
		"&&a=1&&b=2&",
		"version=abcd&as_of=2023-01&a=x&b=y",
		"a&b",
		"a=%",
		"pairs=a%2Cb%3Bc%2Cd",
		"a+b=1",
		"a=%E2%80%A8&b=%ff",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		if strings.Contains(raw, ";") {
			return
		}
		var q query
		_, ok := parseQuery(raw, paramsSameSet, &q)
		want, err := url.ParseQuery(raw)
		accept := err == nil
		for name := range want {
			if !slices.ContainsFunc(paramsSameSet, func(k qkey) bool { return keyNames[k] == name }) {
				accept = false
			}
		}
		if ok != accept {
			t.Fatalf("parseQuery(%q) ok = %v, want %v (url.ParseQuery: %v, %v)", raw, ok, accept, want, err)
		}
		if !ok {
			return
		}
		for _, key := range paramsSameSet {
			name := keyNames[key]
			if got := q.vals[key]; got != want.Get(name) {
				t.Errorf("parseQuery(%q)[%s] = %q, want %q", raw, name, got, want.Get(name))
			}
			if seen := q.seen&(1<<key) != 0; seen != want.Has(name) {
				t.Errorf("parseQuery(%q) saw %s = %v, want %v", raw, name, seen, want.Has(name))
			}
		}
	})
}
