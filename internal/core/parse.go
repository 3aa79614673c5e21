package core

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"unicode/utf8"

	"rwskit/internal/domain"
)

// ParseJSON parses data in the upstream related_website_sets.JSON schema:
// origins are canonicalized ("https://example.com" -> "example.com"),
// non-https origins are rejected, and the disjointness invariant is
// enforced. To catch schema drift the parser takes exactly the schema's
// spelling: the body must be one object holding a "sets" array (an empty
// one is fine), and unknown, case-folded or duplicate keys, null values,
// invalid UTF-8, unpaired surrogate escapes and bytes after the object
// are all errors.
//
// One scanner walks the body once and writes straight into each Set.
// Every string a Set keeps is a substring of one per-set allocation, so
// the returned list does not pin data.
func ParseJSON(data []byte) (*List, error) {
	l, _, err := parseList(data, nil, false)
	return l, err
}

// A Revision is a list together with, for each of its sets, the length
// and SHA-256 of the bytes the set was decoded from and the set's content
// digest in List.Hash. Only ParseJSONFrom makes one, so the byte digests
// always describe the list's own body. It holds no body bytes: ~72B per
// set on top of the list.
type Revision struct {
	list  *List
	spans []setSpan // spans[i] covers list.Sets()[i]
}

// setSpan is the length and SHA-256 of one set's bytes, from its '{' to
// its '}', and the SHA-256 of the set's framing in List.Hash. A set taken
// or shared from the previous revision carries that revision's content
// digest; only a set decoded into a new *Set is framed and digested.
type setSpan struct {
	sum    [sha256.Size]byte
	n      int
	digest [sha256.Size]byte
}

// List returns the revision's list.
func (r *Revision) List() *List { return r.list }

// Hash returns the list's content hash, r.List().Hash(), combined from
// the set digests the parse kept or carried over, without framing any
// set again.
func (r *Revision) Hash() string {
	return hashDigests(r.list.order, func(i int32) [sha256.Size]byte { return r.spans[i].digest })
}

// ParseJSONFrom is ParseJSON for a revision of prev; a nil prev shares
// nothing. A set whose bytes have the length and SHA-256 of prev's set at
// the cursor is taken as prev's *Set without being decoded. Any other set
// is decoded and, if it Equals prev's set with the same primary, replaced
// by prev's *Set, and the cursor moves past that set, so it follows sets
// that slid or moved. Consecutive revisions therefore share every set
// that did not change, and a body that rewrote an unchanged set's
// formatting still shares it. The result hashes and marshals as
// ParseJSON's does, and errors carry the same text. A set taken or shared
// keeps prev's content digest, so Revision.Hash frames only the sets that
// changed.
func ParseJSONFrom(data []byte, prev *Revision) (*Revision, error) {
	l, spans, err := parseList(data, prev, true)
	if err != nil {
		return nil, err
	}
	return &Revision{list: l, spans: spans}, nil
}

// parseList parses a list body against prev, returning the list and,
// with digest, each set's span.
func parseList(data []byte, prev *Revision, digest bool) (*List, []setSpan, error) {
	sc := scanner{data: data}
	var sets []*Set
	var spans []setSpan
	var from *prevOrder
	sawSets := false
	more, err := sc.first('{', '}')
	for more && err == nil {
		var key []byte
		if key, err = sc.key(); err != nil {
			break
		}
		switch {
		case string(key) != "sets":
			err = sc.errorf("unknown field %q", key)
		case sawSets:
			err = sc.errorf(`duplicate field "sets"`)
		default:
			sawSets = true
			if sets, spans, from, err = sc.sets(prev, digest); err != nil {
				return nil, nil, err
			}
			more, err = sc.next('}')
		}
	}
	if err == nil && !sawSets {
		err = errors.New(`missing "sets" array`)
	}
	if err == nil {
		err = sc.end()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: parsing list JSON: %w", err)
	}
	l, err := newList(sets, from)
	return l, spans, err
}

// prevOrder records where a parse against a previous revision put that
// revision's sets: at[p] is the position in the new list of prev's set p,
// taken or shared through Equal, or -1, and decoded holds the positions
// of the sets that are not prev's.
type prevOrder struct {
	prev    *List
	at      []int32
	decoded []int32
}

// merge returns the primary order of sets, the new list: prev's order
// less the sets the new list dropped, which is sorted because a kept set
// has prev's set's primary, merged with the decoded sets sorted by
// primary. The new list's index holds each primary once, so no two new
// positions claim one of prev's sets and every set is in the order once.
func (o *prevOrder) merge(sets []*Set) []int32 {
	sortByPrimary(sets, o.decoded)
	order := make([]int32, 0, len(sets))
	d := o.decoded
	for _, p := range o.prev.order {
		i := o.at[p]
		if i < 0 {
			continue
		}
		for len(d) > 0 && sets[d[0]].Primary < sets[i].Primary {
			order = append(order, d[0])
			d = d[1:]
		}
		order = append(order, i)
	}
	return append(order, d...)
}

// ParseSetJSON parses a single set object (the payload of an RWS pull
// request) in the upstream schema, as strictly as ParseJSON parses each
// of a list's sets.
func ParseSetJSON(data []byte) (*Set, error) {
	sc := scanner{data: data}
	s, err := sc.set()
	if err == nil {
		err = sc.end()
	}
	if err != nil {
		return nil, fmt.Errorf("core: parsing set JSON: %w", err)
	}
	return s, nil
}

// sets scans the "sets" array against prev (see ParseJSONFrom) and
// returns each set, with its span and content digest if digest is set,
// and, against a prev, where prev's sets went. An error inside a set
// names the set.
func (sc *scanner) sets(prev *Revision, digest bool) ([]*Set, []setSpan, *prevOrder, error) {
	var sets []*Set
	var spans []setSpan
	var from *prevOrder
	if prev != nil {
		// A revision is about as long as the one before it.
		sets = make([]*Set, 0, len(prev.spans))
		spans = make([]setSpan, 0, len(prev.spans))
		from = &prevOrder{prev: prev.list, at: make([]int32, len(prev.spans))}
		for p := range from.at {
			from.at[p] = -1
		}
	}
	cur := 0 // the cursor: the prev set the next one is tried against
	more, err := sc.first('[', ']')
	for more && err == nil {
		sc.skipSpace()
		start := sc.pos
		s, sp := prev.take(cur, sc.data[start:])
		if s != nil {
			sc.pos += sp.n
			from.at[cur] = int32(len(sets))
			cur++
		} else {
			if s, err = sc.set(); err != nil {
				return nil, nil, nil, fmt.Errorf("core: set %d: %w", len(sets), err)
			}
			if digest {
				sp = setSpan{sum: sha256.Sum256(sc.data[start:sc.pos]), n: sc.pos - start}
			}
			fresh := true
			if prev != nil {
				if old, pos, _, ok := prev.list.Lookup(s.Primary); ok {
					cur = pos + 1
					if old.Equal(s) {
						s, fresh = old, false
						sp.digest = prev.spans[pos].digest
						from.at[pos] = int32(len(sets))
					}
				}
				if fresh {
					from.decoded = append(from.decoded, int32(len(sets)))
				}
			}
			if digest && fresh {
				// s's strings were copied out of buf, so its framing
				// can reuse it.
				sc.framer.buf = sc.buf
				sp.digest = sc.framer.digest(s)
				sc.buf = sc.framer.buf
			}
		}
		sets = append(sets, s)
		if digest {
			spans = append(spans, sp)
		}
		more, err = sc.next(']')
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: parsing list JSON: %w", err)
	}
	return sets, spans, from, nil
}

// take returns r's set at position i and its span, content digest
// included, when rest starts with the bytes that set was decoded from,
// and nil otherwise. A set's bytes decode the same wherever they stand,
// so the set is what decoding them again would give.
func (r *Revision) take(i int, rest []byte) (*Set, setSpan) {
	if r == nil || i >= len(r.spans) {
		return nil, setSpan{}
	}
	sp := r.spans[i]
	if sp.n > len(rest) || sha256.Sum256(rest[:sp.n]) != sp.sum {
		return nil, setSpan{}
	}
	return r.list.sets[i], sp
}

// Set fields, in schema order; the bit 1<<f marks field f as seen.
const (
	fieldContact = iota
	fieldPrimary
	fieldAssociated
	fieldService
	fieldRationale
	fieldCCTLDs
)

var fieldNames = [...]string{"contact", "primary", "associatedSites", "serviceSites", "rationaleBySite", "ccTLDs"}

// A span is one string of the set being scanned, decoded into
// scanner.buf[start:end]. Map entries are a key span followed by the
// value's spans.
type span struct {
	kind       spanKind
	start, end int
}

type spanKind uint8

const (
	spanContact spanKind = iota
	spanPrimary
	spanAssociated
	spanService
	spanRationaleKey
	spanRationale
	spanCCTLDKey
	spanCCTLD
)

// scanner reads the list schema from data. Its syntax errors carry the
// byte offset they were found at.
type scanner struct {
	data []byte
	pos  int
	// buf and spans hold the decoded strings of the set being scanned;
	// both are reused from set to set.
	buf   []byte
	spans []span
	// count tallies the spans of each kind in the set being scanned.
	count [spanCCTLD + 1]int
	// framer digests each decoded set's content for Revision.Hash.
	framer setFramer
}

// errorf reports a syntax error at the cursor.
func (sc *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("syntax error at byte %d: %s", sc.pos, fmt.Sprintf(format, args...))
}

func (sc *scanner) skipSpace() {
	for sc.pos < len(sc.data) {
		switch sc.data[sc.pos] {
		case ' ', '\t', '\n', '\r':
			sc.pos++
		default:
			return
		}
	}
}

// expect skips whitespace and consumes c.
func (sc *scanner) expect(c byte) error {
	sc.skipSpace()
	if sc.pos >= len(sc.data) {
		return sc.errorf("unexpected end of input, want %q", c)
	}
	if sc.data[sc.pos] != c {
		return sc.errorf("found %q, want %q", sc.data[sc.pos], c)
	}
	sc.pos++
	return nil
}

// end requires nothing but whitespace after the top-level value.
func (sc *scanner) end() error {
	sc.skipSpace()
	if sc.pos < len(sc.data) {
		return sc.errorf("unexpected %q after top-level value", sc.data[sc.pos])
	}
	return nil
}

// first consumes the open byte of an array or object and reports
// whether an element follows (false: the close byte was consumed too).
// The caller scans each element, then calls next.
func (sc *scanner) first(open, close byte) (bool, error) {
	if err := sc.expect(open); err != nil {
		return false, err
	}
	sc.skipSpace()
	if sc.pos < len(sc.data) && sc.data[sc.pos] == close {
		sc.pos++
		return false, nil
	}
	return true, nil
}

// next consumes the ',' before another element (true) or the close byte
// (false).
func (sc *scanner) next(close byte) (bool, error) {
	sc.skipSpace()
	if sc.pos >= len(sc.data) {
		return false, sc.errorf("unexpected end of input, want ',' or %q", close)
	}
	switch sc.data[sc.pos] {
	case ',':
		sc.pos++
		return true, nil
	case close:
		sc.pos++
		return false, nil
	}
	return false, sc.errorf("found %q, want ',' or %q", sc.data[sc.pos], close)
}

// key scans an object key and its colon, returning the decoded key. The
// bytes are only valid until the next string is scanned.
func (sc *scanner) key() ([]byte, error) {
	start := len(sc.buf)
	if err := sc.str(); err != nil {
		return nil, err
	}
	key := sc.buf[start:]
	sc.buf = sc.buf[:start]
	return key, sc.expect(':')
}

// add scans a string into buf and records it as a span of kind k.
func (sc *scanner) add(k spanKind) error {
	start := len(sc.buf)
	if err := sc.str(); err != nil {
		return err
	}
	sc.spans = append(sc.spans, span{kind: k, start: start, end: len(sc.buf)})
	sc.count[k]++
	return nil
}

// addAll scans an array of strings as spans of kind k.
func (sc *scanner) addAll(k spanKind) error {
	more, err := sc.first('[', ']')
	for more && err == nil {
		if err = sc.add(k); err == nil {
			more, err = sc.next(']')
		}
	}
	return err
}

// set scans one set object and builds the Set from its spans.
func (sc *scanner) set() (*Set, error) {
	sc.buf, sc.spans, sc.count = sc.buf[:0], sc.spans[:0], [len(sc.count)]int{}
	var seen uint
	more, err := sc.first('{', '}')
	for more && err == nil {
		var key []byte
		if key, err = sc.key(); err != nil {
			break
		}
		f := 0
		for f < len(fieldNames) && fieldNames[f] != string(key) {
			f++
		}
		if f == len(fieldNames) {
			return nil, sc.errorf("unknown field %q", key)
		}
		if seen&(1<<f) != 0 {
			return nil, sc.errorf("duplicate field %q", key)
		}
		seen |= 1 << f
		if err := sc.field(f); err != nil {
			return nil, fmt.Errorf("%s: %w", fieldNames[f], err)
		}
		more, err = sc.next('}')
	}
	if err != nil {
		return nil, err
	}
	return sc.build()
}

// field scans the value of set field f into spans.
func (sc *scanner) field(f int) error {
	switch f {
	case fieldContact:
		return sc.add(spanContact)
	case fieldPrimary:
		return sc.add(spanPrimary)
	case fieldAssociated:
		return sc.addAll(spanAssociated)
	case fieldService:
		return sc.addAll(spanService)
	}
	// rationaleBySite and ccTLDs are objects keyed by origin.
	key := spanRationaleKey
	if f == fieldCCTLDs {
		key = spanCCTLDKey
	}
	more, err := sc.first('{', '}')
	for more && err == nil {
		if err = sc.add(key); err != nil {
			break
		}
		if err = sc.expect(':'); err != nil {
			break
		}
		if f == fieldCCTLDs {
			err = sc.addAll(spanCCTLD)
		} else {
			err = sc.add(spanRationale)
		}
		if err == nil {
			more, err = sc.next('}')
		}
	}
	return err
}

// spanNames names each span kind's field in errors.
var spanNames = [...]string{"contact", "primary", "associatedSites", "serviceSites",
	"rationaleBySite key", "rationaleBySite", "ccTLDs key", "ccTLDs"}

// build turns the scanned spans into a Set. All of the set's strings are
// substrings of one allocation, its member slices share one backing
// array, and its maps are sized from the span counts. A map key that
// canonicalizes to one already present is an error, as is a raw
// duplicate key.
func (sc *scanner) build() (*Set, error) {
	if sc.count[spanPrimary] == 0 {
		return nil, fmt.Errorf("primary: %w", domain.ErrEmpty)
	}
	arena := string(sc.buf)
	s := &Set{}
	// Each member slice is capped at its own length, so an append to one
	// never writes into the next.
	var hosts []string
	if n := sc.count[spanAssociated] + sc.count[spanService] + sc.count[spanCCTLD]; n > 0 {
		hosts = make([]string, 0, n)
	}
	if n := sc.count[spanRationaleKey]; n > 0 {
		s.RationaleBySite = make(map[string]string, n)
	}
	if n := sc.count[spanCCTLDKey]; n > 0 {
		s.CCTLDs = make(map[string][]string, n)
	}
	var key, rawKey string // the map entry being filled
	// hosts[from:] is the member slice being filled: the spans of one
	// array are consecutive.
	from, last := 0, spanContact
	for _, sp := range sc.spans {
		if sp.kind != last {
			from, last = len(hosts), sp.kind
		}
		raw := arena[sp.start:sp.end]
		switch sp.kind {
		case spanContact:
			s.Contact = raw
			continue
		case spanRationale:
			s.RationaleBySite[key] = raw
			continue
		}
		o, err := domain.ParseHTTPSOrigin(raw)
		if err != nil {
			if sp.kind == spanCCTLD {
				return nil, fmt.Errorf("ccTLDs[%s]: %w", rawKey, err)
			}
			return nil, fmt.Errorf("%s: %w", spanNames[sp.kind], err)
		}
		host := o.Host()
		switch sp.kind {
		case spanPrimary:
			s.Primary = host
		case spanAssociated:
			hosts = append(hosts, host)
			s.Associated = hosts[from:len(hosts):len(hosts)]
		case spanService:
			hosts = append(hosts, host)
			s.Service = hosts[from:len(hosts):len(hosts)]
		case spanRationaleKey:
			if _, dup := s.RationaleBySite[host]; dup {
				return nil, fmt.Errorf("rationaleBySite: duplicate key %q", raw)
			}
			key = host
		case spanCCTLDKey:
			if _, dup := s.CCTLDs[host]; dup {
				return nil, fmt.Errorf("ccTLDs: duplicate key %q", raw)
			}
			key, rawKey = host, raw
			s.CCTLDs[key] = nil // marks the key seen until its aliases arrive
		case spanCCTLD:
			hosts = append(hosts, host)
			s.CCTLDs[key] = hosts[from:len(hosts):len(hosts)]
		}
	}
	// A key with no aliases names no member: drop it, or MarshalJSON
	// would emit it as an empty array.
	for base, aliases := range s.CCTLDs {
		if len(aliases) == 0 {
			delete(s.CCTLDs, base)
		}
	}
	return s, nil
}

// str scans the JSON string at the cursor and appends its decoded bytes
// to buf. Raw control bytes, invalid UTF-8, unknown escapes and unpaired
// surrogates are errors. Plain ASCII is skipped a word at a time.
func (sc *scanner) str() error {
	if err := sc.expect('"'); err != nil {
		return err
	}
	start := sc.pos
	for sc.pos < len(sc.data) {
		for ; sc.pos+8 <= len(sc.data); sc.pos += 8 {
			if m := strStops(binary.LittleEndian.Uint64(sc.data[sc.pos:])); m != 0 {
				sc.pos += bits.TrailingZeros64(m) >> 3
				break
			}
		}
		if sc.pos == len(sc.data) {
			break
		}
		c := sc.data[sc.pos]
		switch {
		case c == '"':
			sc.buf = append(sc.buf, sc.data[start:sc.pos]...)
			sc.pos++
			return nil
		case c == '\\':
			sc.buf = append(sc.buf, sc.data[start:sc.pos]...)
			if err := sc.escape(); err != nil {
				return err
			}
			start = sc.pos
		case c < 0x20:
			return sc.errorf("control character %q in string", c)
		case c < utf8.RuneSelf:
			sc.pos++
		default:
			r, size := utf8.DecodeRune(sc.data[sc.pos:])
			if r == utf8.RuneError && size == 1 {
				return sc.errorf("invalid UTF-8 in string")
			}
			sc.pos += size
		}
	}
	return sc.errorf("unterminated string")
}

// escape decodes the escape sequence at the cursor (a backslash) into
// buf. A \uXXXX high surrogate must be followed by a \uXXXX low one.
func (sc *scanner) escape() error {
	if sc.pos+1 >= len(sc.data) {
		return sc.errorf("unterminated escape")
	}
	c := sc.data[sc.pos+1]
	var b byte
	switch c {
	case '"', '\\', '/':
		b = c
	case 'b':
		b = '\b'
	case 'f':
		b = '\f'
	case 'n':
		b = '\n'
	case 'r':
		b = '\r'
	case 't':
		b = '\t'
	case 'u':
		r, err := sc.hex4()
		if err != nil {
			return err
		}
		if utf16IsSurrogate(r) {
			if r >= 0xDC00 {
				return sc.errorf("unpaired surrogate \\u%04x", r)
			}
			lo, err := sc.hex4()
			if err != nil || lo < 0xDC00 || lo > 0xDFFF {
				return sc.errorf("unpaired surrogate \\u%04x", r)
			}
			r = 0x10000 + (r-0xD800)<<10 + (lo - 0xDC00)
		}
		sc.buf = utf8.AppendRune(sc.buf, r)
		return nil
	default:
		return sc.errorf("invalid escape \\%c", c)
	}
	sc.buf = append(sc.buf, b)
	sc.pos += 2
	return nil
}

// hex4 decodes a \uXXXX escape at the cursor.
func (sc *scanner) hex4() (rune, error) {
	if sc.pos+6 > len(sc.data) || sc.data[sc.pos] != '\\' || sc.data[sc.pos+1] != 'u' {
		return 0, sc.errorf("want \\uXXXX")
	}
	var r rune
	for _, c := range sc.data[sc.pos+2 : sc.pos+6] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, sc.errorf("invalid \\u escape")
		}
		r = r<<4 | rune(c)
	}
	sc.pos += 6
	return r, nil
}

func utf16IsSurrogate(r rune) bool { return r >= 0xD800 && r < 0xE000 }
