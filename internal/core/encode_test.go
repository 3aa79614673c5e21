package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rwskit/internal/amplify"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
)

// hashOracle is List.Hash written independently: each set's framing by
// one fmt.Fprintf per field, member and rationale into its own SHA-256,
// sets ordered by sort.Slice, and the set digests concatenated into one
// more SHA-256. The direct encoder must reproduce its digest.
func hashOracle(l *core.List) string {
	ordered := append([]*core.Set(nil), l.Sets()...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Primary < ordered[j].Primary })
	var sums []byte
	for _, s := range ordered {
		h := sha256.New()
		fmt.Fprintf(h, "set\x00%s\x00%s\x00", s.Primary, s.Contact)
		for _, m := range s.Members() {
			fmt.Fprintf(h, "m\x00%d\x00%s\x00%s\x00", int(m.Role), m.Site, m.AliasOf)
		}
		keys := make([]string, 0, len(s.RationaleBySite))
		for k := range s.RationaleBySite {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, site := range keys {
			fmt.Fprintf(h, "r\x00%s\x00%s\x00", site, s.RationaleBySite[site])
		}
		sums = h.Sum(sums)
	}
	sum := sha256.Sum256(sums)
	return hex.EncodeToString(sum[:])
}

// oracleSet mirrors the upstream related_website_sets.JSON schema for
// the reflect-driven encoding/json oracle.
type oracleSet struct {
	Contact         string              `json:"contact,omitempty"`
	Primary         string              `json:"primary"`
	AssociatedSites []string            `json:"associatedSites,omitempty"`
	ServiceSites    []string            `json:"serviceSites,omitempty"`
	RationaleBySite map[string]string   `json:"rationaleBySite,omitempty"`
	CCTLDs          map[string][]string `json:"ccTLDs,omitempty"`
}

func oracleSetOf(s *core.Set) oracleSet {
	origin := func(host string) string { return "https://" + host }
	js := oracleSet{Contact: s.Contact, Primary: origin(s.Primary)}
	for _, a := range s.Associated {
		js.AssociatedSites = append(js.AssociatedSites, origin(a))
	}
	for _, v := range s.Service {
		js.ServiceSites = append(js.ServiceSites, origin(v))
	}
	if len(s.CCTLDs) > 0 {
		js.CCTLDs = make(map[string][]string, len(s.CCTLDs))
		for base, aliases := range s.CCTLDs {
			oa := make([]string, len(aliases))
			for i, a := range aliases {
				oa[i] = origin(a)
			}
			js.CCTLDs[origin(base)] = oa
		}
	}
	if len(s.RationaleBySite) > 0 {
		js.RationaleBySite = make(map[string]string, len(s.RationaleBySite))
		for site, why := range s.RationaleBySite {
			js.RationaleBySite[origin(site)] = why
		}
	}
	return js
}

// marshalOracle is List.MarshalJSON as first written: encoding/json over
// the schema structs, sets sorted by primary.
func marshalOracle(l *core.List) ([]byte, error) {
	ordered := append([]*core.Set(nil), l.Sets()...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Primary < ordered[j].Primary })
	jl := struct {
		Sets []oracleSet `json:"sets"`
	}{Sets: make([]oracleSet, 0, len(ordered))}
	for _, s := range ordered {
		jl.Sets = append(jl.Sets, oracleSetOf(s))
	}
	return json.Marshal(jl)
}

// checkEncoders holds Hash, MarshalJSON and MarshalSetJSON to their
// oracles byte for byte, and SetJSONSize to the length of each set's
// encoding when nothing in it is escaped, and below it otherwise.
func checkEncoders(t *testing.T, l *core.List) {
	t.Helper()
	if got, want := l.Hash(), hashOracle(l); got != want {
		t.Fatalf("Hash = %s, oracle %s", got, want)
	}
	got, err := l.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := marshalOracle(l)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("MarshalJSON differs from encoding/json:\n got %.300s\nwant %.300s", got, want)
	}
	for _, s := range l.Sets() {
		got, err := core.MarshalSetJSON(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(oracleSetOf(s))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("MarshalSetJSON(%q) = %s, want %s", s.Primary, got, want)
		}
		// Only an escape, which always holds a backslash, lengthens a string.
		if n, escaped := core.SetJSONSize(s), strings.Contains(string(got), `\`); n > len(got) || (n < len(got)) != escaped {
			t.Fatalf("SetJSONSize(%q) = %d for %d bytes:\n%s", s.Primary, n, len(got), got)
		}
	}
}

// TestEncodersMatchOracles checks the direct encoders on the embedded
// list and on amplified lists from seeds 1–5.
func TestEncodersMatchOracles(t *testing.T) {
	embedded, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("embedded", func(t *testing.T) { checkEncoders(t, embedded) })
	for seed := int64(1); seed <= 5; seed++ {
		l, err := amplify.Generate(amplify.Config{Sets: 2000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("amplify-seed%d", seed), func(t *testing.T) { checkEncoders(t, l) })
	}
	empty, err := core.NewList(nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("empty", func(t *testing.T) { checkEncoders(t, empty) })
}

// plainRun returns n bytes of plain ASCII, n at most 36.
func plainRun(n int) string { return "abcdefghijklmnopqrstuvwxyz0123456789"[:n] }

// TestAppendJSONStringMatchesMarshal holds the hand-rolled string
// encoder to encoding/json byte-for-byte: ASCII, the HTML escapes, every
// control character, multibyte runes, invalid UTF-8, U+2028/U+2029, and
// a quote, a backslash, NUL, 0x1f, '<', '>', '&', DEL, a 2-byte and a
// 3-byte rune, U+2028 and an invalid byte each at every offset 0–16 of a
// plain run, followed by 0, 7 or 9 plain bytes.
func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	cases := []string{
		"", "example.com", "a.example", "with space", "quote\"inside",
		"back\\slash", "tab\tnewline\nret\r", "\x00\x01\x1f\x7f",
		"<script>&amp;</script>", "über.de", "日本語.jp", "emoji 🎉 host",
		" line sep", "bad\xff\xfeutf8", "\xc3", "mixed<&>\xe2\x80",
	}
	// The byte classes the encoder must stop at, or (DEL) pass, at every
	// offset of a plain run, so a word-at-a-time skip that stops a byte
	// early or late shows.
	kernelBytes := []string{`"`, `\`, "\x00", "\x1f", "<", ">", "&", "\x7f", "é", "日", "\u2028", "\xff"}
	for _, k := range kernelBytes {
		for off := 0; off <= 16; off++ {
			for _, tail := range []int{0, 7, 9} {
				cases = append(cases, plainRun(off)+k+plainRun(tail))
			}
		}
	}
	rng := rand.New(rand.NewSource(9))
	for n := 0; n < 500; n++ {
		b := make([]byte, rng.Intn(24))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("Marshal(%q): %v", s, err)
		}
		if got := core.AppendJSONString(nil, s); string(got) != string(want) {
			t.Errorf("AppendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}

// fuzzSets builds n sets from three fuzzed strings. host maps a string
// and a tag to a member site; the tags keep the sites of one list apart
// unless the fuzzed strings themselves collide.
func fuzzSets(contact, site, why string, n int, host func(s, tag string) string) []*core.Set {
	sets := make([]*core.Set, 0, n)
	for i := 0; i < n; i++ {
		tag := strconv.Itoa(i)
		primary := host(site, tag+"p")
		assoc := host(site, tag+"a")
		other := host(why, tag+"w")
		s := &core.Set{
			Contact:    contact,
			Primary:    primary,
			Associated: []string{assoc, other},
			Service:    []string{host(contact, tag+"s")},
			CCTLDs: map[string][]string{
				primary: {host(site, tag+"c")},
				assoc:   {},
			},
			RationaleBySite: map[string]string{assoc: why, other: contact + why},
		}
		if i%2 == 1 {
			s.Contact = ""
			s.CCTLDs = nil
		}
		sets = append(sets, s)
	}
	return sets
}

// canonicalHost maps any string to a host ParseJSON accepts unchanged.
func canonicalHost(s, tag string) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := []byte("x")
	for i := 0; i < len(s) && len(b) < 40; i++ {
		b = append(b, alphabet[int(s[i])%len(alphabet)])
	}
	return string(b) + tag + ".example"
}

// FuzzListEncode holds Hash, MarshalJSON and MarshalSetJSON to their
// encoding/json and fmt oracles on lists built from arbitrary strings,
// verbatim as sites, contacts and rationales. A second list with
// canonical hosts must also keep its hash through a ParseJSON round trip.
func FuzzListEncode(f *testing.F) {
	f.Add("ops@a.example", "a.example", "owned <&> by a", uint8(2))
	f.Add("ctl\x00\x01\x1f", "b\xff.example", "bad\xfe\xc3utf8", uint8(3))
	f.Add("line\u2028sep\u2029", "日本語.jp", "quote\"back\\slash\ttab", uint8(1))
	f.Add("", "", "", uint8(0))
	f.Fuzz(func(t *testing.T, contact, site, why string, n uint8) {
		count := 1 + int(n%4)
		if raw, err := core.NewList(fuzzSets(contact, site, why, count, func(s, tag string) string { return s + tag })); err == nil {
			checkEncoders(t, raw)
		}
		valid := func(s string) string { return strings.ToValidUTF8(s, "\uFFFD") }
		l, err := core.NewList(fuzzSets(valid(contact), site, valid(why), count, canonicalHost))
		if err != nil {
			return // the fuzzed strings mapped two members onto one host
		}
		checkEncoders(t, l)
		body, err := l.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := core.ParseJSON(body)
		if err != nil {
			t.Fatalf("ParseJSON(MarshalJSON): %v\n%s", err, body)
		}
		if back.Hash() != l.Hash() {
			t.Fatalf("hash changed across a ParseJSON round trip:\n%s", body)
		}
	})
}

// benchList is the 10⁴-set amplified list the encoder benchmarks run on,
// the size of servebench's revisions.
func benchList(b *testing.B) *core.List {
	b.Helper()
	l, err := amplify.Generate(amplify.Config{Sets: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return l
}

var benchSink any

func BenchmarkListHash(b *testing.B) {
	l := benchList(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = l.Hash()
	}
}

func BenchmarkListMarshalJSON(b *testing.B) {
	l := benchList(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := l.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		benchSink = body
		b.SetBytes(int64(len(body)))
	}
}

func BenchmarkParseJSON(b *testing.B) {
	body, err := benchList(b).MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := core.ParseJSON(body)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = l
	}
}

// BenchmarkParseJSONFrom parses a 10⁴-set revision against the one
// before it, with 50 sets removed at the front and 50 added at the end:
// servebench's swap_churn shape.
func BenchmarkParseJSONFrom(b *testing.B) {
	const sets, slide = 10000, 50
	l, err := amplify.Generate(amplify.Config{Sets: sets + slide, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	prev, err := core.ParseJSONFrom(listBody(l.Sets()[:sets]...), nil)
	if err != nil {
		b.Fatal(err)
	}
	body := listBody(l.Sets()[slide:]...)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.ParseJSONFrom(body, prev)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = r
	}
}

// BenchmarkRevisionHash combines the content hash of a 10⁴-set revision
// parsed against the one before it, with 50 sets removed at the front
// and 50 added at the end: the hash each source takes of a swap_churn
// revision.
func BenchmarkRevisionHash(b *testing.B) {
	const sets, slide = 10000, 50
	l, err := amplify.Generate(amplify.Config{Sets: sets + slide, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	prev, err := core.ParseJSONFrom(listBody(l.Sets()[:sets]...), nil)
	if err != nil {
		b.Fatal(err)
	}
	rev, err := core.ParseJSONFrom(listBody(l.Sets()[slide:]...), prev)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = rev.Hash()
	}
}
