package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"rwskit/internal/amplify"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
	"rwskit/internal/domain"
)

// oracleList and oracleSet are the schema structs ParseJSON decoded
// through encoding/json before the one-pass scanner replaced it.
type oracleList struct {
	Sets []oracleSet `json:"sets"`
}

// decodeOracle is the old json.Decoder path: unknown fields rejected,
// everything else encoding/json lets through (case-folded and duplicate
// keys, null, invalid UTF-8, trailing bytes).
func decodeOracle(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// parseJSONOracle is ParseJSON as first written.
func parseJSONOracle(data []byte) (*core.List, error) {
	var jl oracleList
	if err := decodeOracle(data, &jl); err != nil {
		return nil, fmt.Errorf("core: parsing list JSON: %w", err)
	}
	sets := make([]*core.Set, 0, len(jl.Sets))
	for i := range jl.Sets {
		s, err := setFromOracle(&jl.Sets[i])
		if err != nil {
			return nil, fmt.Errorf("core: set %d: %w", i, err)
		}
		sets = append(sets, s)
	}
	return core.NewList(sets)
}

// parseSetJSONOracle is ParseSetJSON as first written.
func parseSetJSONOracle(data []byte) (*core.Set, error) {
	var js oracleSet
	if err := decodeOracle(data, &js); err != nil {
		return nil, fmt.Errorf("core: parsing set JSON: %w", err)
	}
	return setFromOracle(&js)
}

func originHost(s string) (string, error) {
	o, err := domain.ParseHTTPSOrigin(s)
	return o.Host(), err
}

func setFromOracle(js *oracleSet) (*core.Set, error) {
	s := &core.Set{Contact: js.Contact}
	p, err := originHost(js.Primary)
	if err != nil {
		return nil, fmt.Errorf("primary: %w", err)
	}
	s.Primary = p
	for _, a := range js.AssociatedSites {
		c, err := originHost(a)
		if err != nil {
			return nil, fmt.Errorf("associatedSites: %w", err)
		}
		s.Associated = append(s.Associated, c)
	}
	for _, v := range js.ServiceSites {
		c, err := originHost(v)
		if err != nil {
			return nil, fmt.Errorf("serviceSites: %w", err)
		}
		s.Service = append(s.Service, c)
	}
	if len(js.CCTLDs) > 0 {
		s.CCTLDs = make(map[string][]string, len(js.CCTLDs))
		for base, aliases := range js.CCTLDs {
			cb, err := originHost(base)
			if err != nil {
				return nil, fmt.Errorf("ccTLDs key: %w", err)
			}
			for _, alias := range aliases {
				ca, err := originHost(alias)
				if err != nil {
					return nil, fmt.Errorf("ccTLDs[%s]: %w", base, err)
				}
				s.CCTLDs[cb] = append(s.CCTLDs[cb], ca)
			}
		}
	}
	if len(js.RationaleBySite) > 0 {
		s.RationaleBySite = make(map[string]string, len(js.RationaleBySite))
		for site, why := range js.RationaleBySite {
			c, err := originHost(site)
			if err != nil {
				return nil, fmt.Errorf("rationaleBySite key: %w", err)
			}
			s.RationaleBySite[c] = why
		}
	}
	return s, nil
}

// spellingRows pins ParseJSON on each body next to the encoding/json
// oracle: old and want are the number of sets parsed, or -1 for an
// error. The rows where they differ are spellings the scanner rejects on
// purpose.
var spellingRows = []struct {
	name      string
	body      string
	old, want int
}{
	{"minimal", `{"sets":[{"primary":"https://a.com"}]}`, 1, 1},
	{"empty array", `{"sets":[]}`, 0, 0},
	{"whitespace", " \t\r\n{ \"sets\" : [ { \"primary\" : \"https://a.com\" } ] } \n", 1, 1},
	{"escapes", `{"sets":[{"contact":"\"\\\/\b\f\n\r\t\u00e9\u003c\u2028\ud83c\udf89","primary":"https:\/\/\u0061.com"}]}`, 1, 1},
	{"escaped key", `{"s\u0065ts":[{"prim\u0061ry":"https://a.com"}]}`, 1, 1},
	{"raw multibyte", `{"sets":[{"contact":"日本語 🎉","primary":"https://a.com"}]}`, 1, 1},

	{"null body", `null`, 0, -1},
	{"empty object", `{}`, 0, -1},
	{"null sets", `{"sets":null}`, 0, -1},
	{"trailing garbage", `{"sets":[]}garbage`, 0, -1},
	{"two bodies", `{"sets":[]}{"sets":[{"primary":"https://a.com"}]}`, 0, -1},
	{"case-folded list key", `{"SETS":[{"primary":"https://a.com"}]}`, 1, -1},
	{"case-folded set key", `{"sets":[{"PRIMARY":"https://a.com"}]}`, 1, -1},
	{"duplicate sets", `{"sets":[{"primary":"https://a.com"}],"sets":[]}`, 0, -1},
	{"duplicate primary", `{"sets":[{"primary":"https://a.com","primary":"https://b.com"}]}`, 1, -1},
	{"duplicate ccTLDs objects", `{"sets":[{"primary":"https://a.com","associatedSites":["https://b.com"],` +
		`"ccTLDs":{"https://a.com":["https://a.de"]},"ccTLDs":{"https://b.com":["https://b.de"]}}]}`, 1, -1},
	{"duplicate rationale key", `{"sets":[{"primary":"https://a.com","associatedSites":["https://b.com"],` +
		`"rationaleBySite":{"https://b.com":"one","https://b.com":"two"}}]}`, 1, -1},
	{"duplicate ccTLDs key", `{"sets":[{"primary":"https://a.com",` +
		`"ccTLDs":{"https://a.com":["https://a.de"],"https://a.com":["https://a.fr"]}}]}`, 1, -1},
	{"null contact", `{"sets":[{"contact":null,"primary":"https://a.com"}]}`, 1, -1},
	{"null array", `{"sets":[{"primary":"https://a.com","associatedSites":null}]}`, 1, -1},
	{"null object", `{"sets":[{"primary":"https://a.com","rationaleBySite":null}]}`, 1, -1},
	{"null alias list", `{"sets":[{"primary":"https://a.com","ccTLDs":{"https://a.com":null}}]}`, 1, -1},
	{"invalid UTF-8", "{\"sets\":[{\"contact\":\"a\xffb\",\"primary\":\"https://a.com\"}]}", 1, -1},
	{"lone high surrogate", `{"sets":[{"contact":"\ud800","primary":"https://a.com"}]}`, 1, -1},
	{"lone low surrogate", `{"sets":[{"contact":"\udc00x","primary":"https://a.com"}]}`, 1, -1},
	{"reversed surrogates", `{"sets":[{"contact":"\udf89\ud83c","primary":"https://a.com"}]}`, 1, -1},

	{"unknown field", `{"sets":[{"primary":"https://a.com","bogus":"x"}]}`, -1, -1},
	{"number primary", `{"sets":[{"primary":1}]}`, -1, -1},
	{"null set", `{"sets":[null]}`, -1, -1},
	{"missing primary", `{"sets":[{"contact":"x"}]}`, -1, -1},
	{"raw control byte", "{\"sets\":[{\"contact\":\"a\tb\",\"primary\":\"https://a.com\"}]}", -1, -1},
	{"bad escape", `{"sets":[{"contact":"\x","primary":"https://a.com"}]}`, -1, -1},
	{"unterminated", `{"sets":[{"primary":"https://a.com"}`, -1, -1},
	{"trailing comma", `{"sets":[{"primary":"https://a.com"},]}`, -1, -1},
	{"non-https", `{"sets":[{"primary":"http://a.com"}]}`, -1, -1},
}

func TestParseJSONSpellings(t *testing.T) {
	count := func(l *core.List, err error) int {
		if err != nil {
			return -1
		}
		return l.NumSets()
	}
	for _, row := range spellingRows {
		if got := count(parseJSONOracle([]byte(row.body))); got != row.old {
			t.Errorf("%s: oracle parsed %d sets, want %d", row.name, got, row.old)
		}
		l, err := core.ParseJSON([]byte(row.body))
		if got := count(l, err); got != row.want {
			t.Errorf("%s: ParseJSON parsed %d sets (err %v), want %d", row.name, got, err, row.want)
		}
	}
}

// TestParseJSONErrors: errors name the set and the field, and syntax
// errors carry their byte offset. Parsing against a previous revision
// holding the bodies' sets gives the same errors: after a set taken by
// its span digest, the next byte is still checked, and a span longer
// than the bytes left is a miss. a.com's and b.com's bodies have the
// same length, so a body repeating a.com's bytes is refused only if the
// digest is compared; both copies then map to one old pointer, and
// NewList must still refuse it.
func TestParseJSONErrors(t *testing.T) {
	cases := []struct{ body, want string }{
		{`{"sets":[{"primary":"https://a.com"},{"primary":"https://b.com","associatedSites":["http://c.com"]}]}`,
			`core: set 1: associatedSites: domain: origin scheme is not https: "http://c.com"`},
		{`{"sets":[{"primary":"https://a.com","serviceSites":[null]}]}`,
			"core: set 0: serviceSites: syntax error at byte 52: found 'n', want '\"'"},
		{`{"sets":[{"primary":"https://a.com","ccTLDs":{"https://a.com":["https://a.com:"]}}]}`,
			"core: set 0: ccTLDs[https://a.com]: domain: origin \"https://a.com:\" must be scheme and host only"},
		{`{"sets":[]} x`, "core: parsing list JSON: syntax error at byte 12: unexpected 'x' after top-level value"},
		{`{"sets":[{"Primary":"https://a.com"}]}`, `core: set 0: syntax error at byte 20: unknown field "Primary"`},
		{`{}`, `core: parsing list JSON: missing "sets" array`},
		{`{"sets":[{"primary":"https://a.com"},{"primary":"https://a.com"}]}`,
			`core: site appears more than once in the list: "a.com" in set "a.com" and set "a.com"`},
		{`{"sets":[{"primary":"https://a.com"} {"primary":"https://b.com"}]}`,
			"core: parsing list JSON: syntax error at byte 37: found '{', want ',' or ']'"},
		{`{"sets":[{"primary":"https://a.com"},{"primary":"https://b.com"}`,
			"core: parsing list JSON: syntax error at byte 64: unexpected end of input, want ',' or ']'"},
		{`{"sets":[{"primary":"https://a.com"},{"primary":"https://b.co`,
			"core: set 1: primary: syntax error at byte 61: unterminated string"},
	}
	prev := mustParse(t, `{"sets":[{"primary":"https://a.com"},{"primary":"https://b.com"}]}`, nil)
	for _, tc := range cases {
		for _, from := range []*core.Revision{nil, prev} {
			_, err := core.ParseJSONFrom([]byte(tc.body), from)
			if err == nil || err.Error() != tc.want {
				t.Errorf("ParseJSONFrom(%s, prev %v)\n err = %v\nwant %s", tc.body, from != nil, err, tc.want)
			}
		}
	}
	if _, err := core.ParseSetJSON([]byte(`{"primary":"https://a.com"} {}`)); err == nil {
		t.Error("ParseSetJSON accepted two objects")
	}
}

// TestParseStringKernelPositions places each byte class the string
// scanner must stop at, raw or as an escape, at every offset 0–16 of a
// plain ASCII run in a contact, followed by 0, 7 or 9 plain bytes. A
// string encoding/json accepts decodes to the same bytes; a raw control
// byte or invalid UTF-8 is an error at that byte's offset.
func TestParseStringKernelPositions(t *testing.T) {
	classes := []struct {
		name, lit string // lit: the class as it stands inside the string
		bad       bool   // a syntax error at lit's first byte
	}{
		{"escaped quote", `\"`, false}, {"escaped backslash", `\\`, false},
		{"escaped newline", `\n`, false}, {"escaped e-acute", `\u00e9`, false},
		{"escaped U+2028", `\u2028`, false}, {"escaped pair", `\ud83c\udf89`, false},
		{"less", "<", false}, {"greater", ">", false}, {"ampersand", "&", false},
		{"DEL", "\x7f", false}, {"2-byte rune", "é", false}, {"3-byte rune", "日", false},
		{"U+2028", "\u2028", false},
		{"NUL", "\x00", true}, {"0x1f", "\x1f", true}, {"tab", "\t", true},
		{"invalid byte", "\xff", true}, {"truncated rune", "\xe6\x97", true},
	}
	const head, tail = `{"sets":[{"contact":"`, `","primary":"https://a.com"}]}`
	for _, c := range classes {
		for off := 0; off <= 16; off++ {
			for _, after := range []int{0, 7, 9} {
				body := head + plainRun(off) + c.lit + plainRun(after) + tail
				l, err := core.ParseJSON([]byte(body))
				if c.bad {
					want := fmt.Sprintf("syntax error at byte %d:", len(head)+off)
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("%s at %d+%d: err %v, want %q", c.name, off, after, err, want)
					}
					continue
				}
				var jl struct{ Sets []struct{ Contact string } }
				if err := json.Unmarshal([]byte(body), &jl); err != nil {
					t.Fatalf("%s at %d+%d: encoding/json: %v", c.name, off, after, err)
				}
				if err != nil {
					t.Errorf("%s at %d+%d: %v", c.name, off, after, err)
				} else if got, want := l.Sets()[0].Contact, jl.Sets[0].Contact; got != want {
					t.Errorf("%s at %d+%d: contact %q, encoding/json %q", c.name, off, after, got, want)
				}
			}
		}
	}
}

// TestParseJSONMatchesOracle: on the embedded list and amplified lists
// from seeds 1–5, compact and indented, ParseJSON and the oracle agree
// byte for byte, and so do ParseSetJSON and its oracle on every set.
func TestParseJSONMatchesOracle(t *testing.T) {
	for _, body := range parseCorpus(t, 2000) {
		checkParse(t, body)
		l, err := core.ParseJSON(body)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range l.Sets() {
			raw, err := core.MarshalSetJSON(s)
			if err != nil {
				t.Fatal(err)
			}
			checkParseSet(t, raw)
		}
	}
}

// parseCorpus returns the embedded list and amplified lists of n sets
// from seeds 1–5, each compact and indented.
func parseCorpus(tb testing.TB, n int) [][]byte {
	tb.Helper()
	lists := []*core.List{}
	embedded, err := dataset.List()
	if err != nil {
		tb.Fatal(err)
	}
	lists = append(lists, embedded)
	for seed := int64(1); seed <= 5; seed++ {
		l, err := amplify.Generate(amplify.Config{Sets: n, Seed: seed})
		if err != nil {
			tb.Fatal(err)
		}
		lists = append(lists, l)
	}
	var bodies [][]byte
	for _, l := range lists {
		compact, err := l.MarshalJSON()
		if err != nil {
			tb.Fatal(err)
		}
		indented, err := l.MarshalJSONIndent()
		if err != nil {
			tb.Fatal(err)
		}
		bodies = append(bodies, compact, indented)
	}
	return bodies
}

// checkParse holds ParseJSON to the oracle. Whatever it accepts, the
// oracle accepts with the same Hash and MarshalJSON bytes. Whatever the
// oracle accepts and it rejects, it accepts in the oracle's canonical
// re-marshal with the same hash, so a rejection is only about spelling.
func checkParse(t *testing.T, data []byte) {
	t.Helper()
	got, err := core.ParseJSON(data)
	want, oerr := parseJSONOracle(data)
	switch {
	case err == nil && oerr != nil:
		t.Fatalf("ParseJSON accepted what the oracle rejects (%v):\n%q", oerr, data)
	case err == nil:
		if got.Hash() != want.Hash() {
			t.Fatalf("ParseJSON and the oracle hash differently:\n%q", data)
		}
		gb, _ := got.MarshalJSON()
		wb, _ := want.MarshalJSON()
		if !bytes.Equal(gb, wb) {
			t.Fatalf("MarshalJSON differs from the oracle's:\n got %s\nwant %s", gb, wb)
		}
	case oerr == nil:
		canon, _ := want.MarshalJSON()
		back, err := core.ParseJSON(canon)
		if err != nil || back.Hash() != want.Hash() {
			t.Fatalf("ParseJSON rejects the oracle's re-marshal of %q: %v\n%s", data, err, canon)
		}
	}
}

// checkParseSet is checkParse for ParseSetJSON, compared through
// MarshalSetJSON.
func checkParseSet(t *testing.T, data []byte) {
	t.Helper()
	got, err := core.ParseSetJSON(data)
	want, oerr := parseSetJSONOracle(data)
	switch {
	case err == nil && oerr != nil:
		t.Fatalf("ParseSetJSON accepted what the oracle rejects (%v):\n%q", oerr, data)
	case err == nil:
		gb, _ := core.MarshalSetJSON(got)
		wb, _ := core.MarshalSetJSON(want)
		if !bytes.Equal(gb, wb) {
			t.Fatalf("MarshalSetJSON differs from the oracle's:\n got %s\nwant %s", gb, wb)
		}
	case oerr == nil:
		canon, _ := core.MarshalSetJSON(want)
		back, err := core.ParseSetJSON(canon)
		if err != nil {
			t.Fatalf("ParseSetJSON rejects the oracle's re-marshal of %q: %v\n%s", data, err, canon)
		}
		if bb, _ := core.MarshalSetJSON(back); !bytes.Equal(bb, canon) {
			t.Fatalf("ParseSetJSON round trip changed %s into %s", canon, bb)
		}
	}
}

// FuzzParseJSON holds ParseJSON and ParseSetJSON to their encoding/json
// oracles (checkParse, checkParseSet), and ParseJSONFrom against a
// previous revision to ParseJSON (checkParseFrom). The seed corpus is
// every spelling row, small amplified lists and one of their sets, and
// three revisions of the previous body: the body itself, the body with
// one rationale byte changed, and the body with its sets rotated, so the
// skip path runs, misses and resyncs.
func FuzzParseJSON(f *testing.F) {
	prev, body := fuzzPrev(f)
	for _, row := range spellingRows {
		f.Add([]byte(row.body))
	}
	for _, body := range parseCorpus(f, 3)[2:] {
		f.Add(body)
		if i := bytes.Index(body, []byte(`{"contact"`)); i >= 0 {
			if j := bytes.IndexByte(body[i:], '}'); j >= 0 {
				f.Add(body[i : i+j+1])
			}
		}
	}
	f.Add([]byte(`{"primary":"https://a.com","associatedSites":["https://B.com."],"ccTLDs":{"https://a.com":[]}}`))
	f.Add(body)
	f.Add(editRationale(f, body))
	sets := prev.List().Sets()
	f.Add(listBody(append(slices.Clone(sets[1:]), sets[0])...))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, data)
		checkParseSet(t, data)
		checkParseFrom(t, data, prev)
	})
}

// fuzzPrev is the previous revision FuzzParseJSON parses against and the
// body it was parsed from: the seed corpus's first amplified list plus
// the spelling rows' a.com set, so seeds that repeat those sets share
// them.
func fuzzPrev(tb testing.TB) (*core.Revision, []byte) {
	l, err := amplify.Generate(amplify.Config{Sets: 3, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	a, err := core.ParseSetJSON([]byte(`{"primary":"https://a.com"}`))
	if err != nil {
		tb.Fatal(err)
	}
	body := listBody(append([]*core.Set{a}, l.Sets()...)...)
	prev, err := core.ParseJSONFrom(body, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return prev, body
}

// listBody encodes sets as a list body in the order given.
func listBody(sets ...*core.Set) []byte {
	body := []byte(`{"sets":[`)
	for i, s := range sets {
		if i > 0 {
			body = append(body, ',')
		}
		body = core.AppendSetJSON(body, s)
	}
	return append(body, "]}"...)
}

// editRationale returns a copy of body with one byte of its last
// rationale changed, at the same length.
func editRationale(tb testing.TB, body []byte) []byte {
	i := bytes.LastIndex(body, []byte("branding"))
	if i < 0 {
		tb.Fatal("no rationale to edit")
	}
	edited := bytes.Clone(body)
	edited[i] = 'B'
	return edited
}

// checkParseFrom holds ParseJSONFrom(data, prev) to ParseJSON(data): the
// same error, or lists with the same Hash, which the revision's own Hash
// also gives, the same PrimaryOrder, which the parse merged from prev's,
// and the same MarshalJSON bytes, whose sets Equal position by position,
// so every set taken from prev Equals the set ParseJSON decoded in its
// place.
func checkParseFrom(t *testing.T, data []byte, prev *core.Revision) {
	t.Helper()
	rev, err := core.ParseJSONFrom(data, prev)
	want, werr := core.ParseJSON(data)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("ParseJSONFrom error %v, ParseJSON error %v:\n%q", err, werr, data)
	}
	if err != nil {
		return
	}
	got := rev.List()
	if got.Hash() != want.Hash() {
		t.Fatalf("ParseJSONFrom and ParseJSON hash differently:\n%q", data)
	}
	if rev.Hash() != want.Hash() {
		t.Fatalf("Revision.Hash differs from its list's Hash:\n%q", data)
	}
	if !slices.Equal(got.PrimaryOrder(), want.PrimaryOrder()) {
		t.Fatalf("ParseJSONFrom's PrimaryOrder %v, ParseJSON's %v:\n%q", got.PrimaryOrder(), want.PrimaryOrder(), data)
	}
	gb, _ := got.MarshalJSON()
	wb, _ := want.MarshalJSON()
	if !bytes.Equal(gb, wb) {
		t.Fatalf("ParseJSONFrom's MarshalJSON differs from ParseJSON's:\n got %s\nwant %s", gb, wb)
	}
	for i, s := range got.Sets() {
		if !s.Equal(want.Sets()[i]) {
			t.Fatalf("ParseJSONFrom's set %d (%s) does not Equal ParseJSON's:\n%q", i, s.Primary, data)
		}
	}
}
