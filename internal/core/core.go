// Package core models Google's Related Website Sets (RWS) list — the object
// of study in "A First Look at Related Website Sets" (IMC 2024).
//
// An RWS list is a collection of disjoint sets. Each set has a primary site
// and up to three member subsets (§2 of the paper):
//
//   - Associated sites: affiliated with the primary (common branding, an
//     about page, or similar) but NOT required to share ownership. The paper
//     shows these are the dominant and most privacy-impacting subset.
//   - Service sites: utility domains under common ownership with the
//     primary; they can never be the top-level site in a storage-access
//     grant.
//   - ccTLD sites: country-code variations of other members, under common
//     ownership with the member they vary.
//
// The package parses and serializes the upstream JSON schema
// (related_website_sets.JSON), canonicalizes member origins, indexes
// membership for O(1) relatedness queries, computes composition statistics
// (Figure 7), and diffs list snapshots for the longitudinal analyses.
//
// Deep submission validation (.well-known checks, eTLD+1 rules, Table 3's
// bot errors) lives in rwskit/internal/validate; browser-side storage
// semantics live in rwskit/internal/browser.
//
// Identical input lists must produce byte-identical stats, diffs, and
// serializations (TestEncodersMatchOracles holds the encoders to their
// sorted oracles).
package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// Role identifies how a site participates in a set.
type Role int

// Roles, in the order they appear in the upstream schema.
const (
	RolePrimary Role = iota
	RoleAssociated
	RoleService
	RoleCCTLD
)

// String returns the lowercase role name used in reports.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleAssociated:
		return "associated"
	case RoleService:
		return "service"
	case RoleCCTLD:
		return "cctld"
	default:
		return fmt.Sprintf("role(%d)", int(r))
	}
}

// Member is a single site's membership record within a set.
type Member struct {
	// Site is the canonical registrable domain, e.g. "example.com".
	Site string
	// Role is the subset the site belongs to.
	Role Role
	// AliasOf is set for RoleCCTLD members: the member site this one is a
	// country-code variation of.
	AliasOf string
}

// Set is one Related Website Set. A set must not be mutated once it is
// in a List: a later revision parsed against the list (ParseJSONFrom)
// may share it, through Equal or by the span digest of the bytes it was
// decoded from, so every retained revision would see the change and the
// digest would vouch for bytes that no longer describe the set.
type Set struct {
	// Contact is the submitter contact recorded in the upstream list.
	Contact string
	// Primary is the set primary's canonical registrable domain.
	Primary string
	// Associated and Service are the canonical member domains, in list
	// order (deduplicated, lowercased, scheme stripped).
	Associated []string
	Service    []string
	// CCTLDs maps a canonical member domain to its country-code variants.
	CCTLDs map[string][]string
	// RationaleBySite carries the submitter's justification for each
	// associated and service member, keyed by canonical domain. The RWS
	// guidelines require one per non-ccTLD member.
	RationaleBySite map[string]string
}

// Members returns every member of the set, primary first, then associated,
// service, and ccTLD members in deterministic order.
func (s *Set) Members() []Member {
	out := make([]Member, 0, s.Size())
	out = append(out, Member{Site: s.Primary, Role: RolePrimary})
	for _, a := range s.Associated {
		out = append(out, Member{Site: a, Role: RoleAssociated})
	}
	for _, v := range s.Service {
		out = append(out, Member{Site: v, Role: RoleService})
	}
	for _, base := range s.AppendCCTLDKeys(nil) {
		for _, alias := range s.CCTLDs[base] {
			out = append(out, Member{Site: alias, Role: RoleCCTLD, AliasOf: base})
		}
	}
	return out
}

// AppendCCTLDKeys appends the set's ccTLD keys, the members that have
// country-code variants, to dst in sorted order: the order Members lists
// their variants in.
func (s *Set) AppendCCTLDKeys(dst []string) []string { return appendSortedKeys(dst, s.CCTLDs) }

// Size returns the total number of member sites including the primary.
func (s *Set) Size() int {
	n := 1 + len(s.Associated) + len(s.Service)
	for _, aliases := range s.CCTLDs {
		n += len(aliases)
	}
	return n
}

// Sites returns all member domains including the primary.
func (s *Set) Sites() []string {
	members := s.Members()
	out := make([]string, len(members))
	for i, m := range members {
		out[i] = m.Site
	}
	return out
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{
		Contact: s.Contact,
		Primary: s.Primary,
	}
	c.Associated = append([]string(nil), s.Associated...)
	c.Service = append([]string(nil), s.Service...)
	if s.CCTLDs != nil {
		c.CCTLDs = make(map[string][]string, len(s.CCTLDs))
		for k, v := range s.CCTLDs {
			c.CCTLDs[k] = append([]string(nil), v...)
		}
	}
	if s.RationaleBySite != nil {
		c.RationaleBySite = make(map[string]string, len(s.RationaleBySite))
		for k, v := range s.RationaleBySite {
			c.RationaleBySite[k] = v
		}
	}
	return c
}

// Equal reports whether s and o hold the same contact, primary, members
// in the same order, ccTLD variants and rationales. A nil map equals an
// empty one, as it does in MarshalSetJSON and List.Hash.
func (s *Set) Equal(o *Set) bool {
	return s.Contact == o.Contact && s.Primary == o.Primary &&
		slices.Equal(s.Associated, o.Associated) && slices.Equal(s.Service, o.Service) &&
		maps.Equal(s.RationaleBySite, o.RationaleBySite) &&
		maps.EqualFunc(s.CCTLDs, o.CCTLDs, slices.Equal[[]string])
}

// List is a full Related Website Sets list: a collection of disjoint sets
// with a site-level membership index.
type List struct {
	sets  []*Set
	index map[string]membership
	// order is the sets' positions sorted by primary: PrimaryOrder.
	order []int32
}

// membership is one index entry: the set holding a site, the set's
// position in Sets(), and the site's role.
type membership struct {
	set  *Set
	pos  int32
	role Role
}

// Errors returned when assembling a list.
var (
	ErrDuplicateSite = errors.New("core: site appears more than once in the list")
	ErrNilSet        = errors.New("core: nil set")
)

// NewList builds a list from sets, indexing every member site as given
// (ParseJSON canonicalizes them first) and enforcing the upstream
// invariant that sets are disjoint: no site may appear in more than one
// set, or twice within one set.
func NewList(sets []*Set) (*List, error) { return newList(slices.Clone(sets), nil) }

// newList is NewList on a slice the list may keep. With a non-nil from,
// the list's primary order is merged from the previous revision's
// (prevOrder.merge) instead of sorted.
func newList(sets []*Set, from *prevOrder) (*List, error) {
	sites := 0
	for _, s := range sets {
		if s != nil {
			sites += s.Size()
		}
	}
	l := &List{sets: sets, index: make(map[string]membership, sites)}
	var keys []string // one set's sorted ccTLD keys, reused from set to set
	for i, s := range sets {
		if s == nil {
			return nil, fmt.Errorf("%w at index %d", ErrNilSet, i)
		}
		pos := int32(i)
		if err := l.indexMember(s, pos, s.Primary, RolePrimary); err != nil {
			return nil, err
		}
		for _, a := range s.Associated {
			if err := l.indexMember(s, pos, a, RoleAssociated); err != nil {
				return nil, err
			}
		}
		for _, v := range s.Service {
			if err := l.indexMember(s, pos, v, RoleService); err != nil {
				return nil, err
			}
		}
		keys = s.AppendCCTLDKeys(keys[:0])
		for _, base := range keys {
			for _, alias := range s.CCTLDs[base] {
				if err := l.indexMember(s, pos, alias, RoleCCTLD); err != nil {
					return nil, err
				}
			}
		}
	}
	if from != nil {
		l.order = from.merge(sets)
		return l, nil
	}
	l.order = make([]int32, len(sets))
	for i := range l.order {
		l.order[i] = int32(i)
	}
	sortByPrimary(sets, l.order)
	return l, nil
}

// sortByPrimary sorts positions in sets by their sets' primaries. The
// index holds each site once, so the primaries are distinct and the
// order is total.
func sortByPrimary(sets []*Set, pos []int32) {
	slices.SortFunc(pos, func(a, b int32) int { return strings.Compare(sets[a].Primary, sets[b].Primary) })
}

// indexMember adds one member of s, the set at position pos, to the
// index, refusing a site some set already holds.
func (l *List) indexMember(s *Set, pos int32, site string, role Role) error {
	if prev, ok := l.index[site]; ok {
		return fmt.Errorf("%w: %q in set %q and set %q",
			ErrDuplicateSite, site, prev.set.Primary, s.Primary)
	}
	l.index[site] = membership{set: s, pos: pos, role: role}
	return nil
}

// Sets returns the list's sets in order. The slice is shared; callers must
// not mutate it.
func (l *List) Sets() []*Set { return l.sets }

// PrimaryOrder returns the positions in Sets() of the sets sorted by
// primary, the order JSON and Hash walk. The slice is shared; callers
// must not mutate it.
func (l *List) PrimaryOrder() []int32 { return l.order }

// NumSets returns the number of sets.
func (l *List) NumSets() int { return len(l.sets) }

// NumSites returns the total number of member sites across all sets.
func (l *List) NumSites() int { return len(l.index) }

// Lookup returns the set holding host, the set's position in Sets() and
// host's role. host must be canonical (CanonicalHost); any other
// spelling misses.
//
//rws:hotpath
//rws:allocfree
func (l *List) Lookup(host string) (set *Set, pos int, role Role, ok bool) {
	m, ok := l.index[host]
	return m.set, int(m.pos), m.role, ok
}

// FindSet returns the set containing site and the site's role within it.
func (l *List) FindSet(site string) (set *Set, role Role, ok bool) {
	m, ok := l.index[canonicalHost(site)]
	if !ok {
		return nil, 0, false
	}
	return m.set, m.role, true
}

// SameSet reports whether a and b are members of the same Related Website
// Set — the relatedness relation the paper's user study asks participants
// to judge. A site is trivially in the same set as itself only if it is a
// member of some set.
func (l *List) SameSet(a, b string) bool {
	ma, ok := l.index[canonicalHost(a)]
	if !ok {
		return false
	}
	mb, ok := l.index[canonicalHost(b)]
	if !ok {
		return false
	}
	return ma.set == mb.set
}

// SameSetScan is the ablation baseline for SameSet: it scans every set
// rather than using the index.
func (l *List) SameSetScan(a, b string) bool {
	ca, cb := canonicalHost(a), canonicalHost(b)
	for _, s := range l.sets {
		var hasA, hasB bool
		for _, m := range s.Members() {
			if m.Site == ca {
				hasA = true
			}
			if m.Site == cb {
				hasB = true
			}
		}
		if hasA && hasB {
			return true
		}
		if hasA || hasB {
			return false
		}
	}
	return false
}

// CompositionStats summarises a list the way Figure 7 and §4 of the paper
// do.
type CompositionStats struct {
	Sets            int
	AssociatedSites int
	ServiceSites    int
	CCTLDSites      int

	SetsWithAssociated int
	SetsWithService    int
	SetsWithCCTLD      int

	MeanAssociatedPerSet float64
}

// FracSetsWithAssociated returns the fraction of sets that contain at least
// one associated site (the paper reports 92.7%).
func (c CompositionStats) FracSetsWithAssociated() float64 {
	if c.Sets == 0 {
		return 0
	}
	return float64(c.SetsWithAssociated) / float64(c.Sets)
}

// FracSetsWithService returns the fraction of sets with >= 1 service site.
func (c CompositionStats) FracSetsWithService() float64 {
	if c.Sets == 0 {
		return 0
	}
	return float64(c.SetsWithService) / float64(c.Sets)
}

// FracSetsWithCCTLD returns the fraction of sets with >= 1 ccTLD site.
func (c CompositionStats) FracSetsWithCCTLD() float64 {
	if c.Sets == 0 {
		return 0
	}
	return float64(c.SetsWithCCTLD) / float64(c.Sets)
}

// Stats computes composition statistics over the list.
func (l *List) Stats() CompositionStats {
	var c CompositionStats
	c.Sets = len(l.sets)
	for _, s := range l.sets {
		c.AssociatedSites += len(s.Associated)
		c.ServiceSites += len(s.Service)
		var cc int
		for _, aliases := range s.CCTLDs {
			cc += len(aliases)
		}
		c.CCTLDSites += cc
		if len(s.Associated) > 0 {
			c.SetsWithAssociated++
		}
		if len(s.Service) > 0 {
			c.SetsWithService++
		}
		if cc > 0 {
			c.SetsWithCCTLD++
		}
	}
	if c.Sets > 0 {
		c.MeanAssociatedPerSet = float64(c.AssociatedSites) / float64(c.Sets)
	}
	return c
}

// SubsetPairs returns (primary SLD-comparand, member) site pairs for the
// given role across the list: each non-primary member paired with its set
// primary. Figure 3 computes Levenshtein distances over these pairs.
func (l *List) SubsetPairs(role Role) [][2]string {
	var out [][2]string
	for _, s := range l.sets {
		for _, m := range s.Members() {
			if m.Role == role {
				out = append(out, [2]string{s.Primary, m.Site})
			}
		}
	}
	return out
}

// MarshalJSON is JSON for encoding/json's Marshaler; it never fails.
func (l *List) MarshalJSON() ([]byte, error) { return l.JSON(), nil }

// JSON serializes the list back to the upstream schema with
// deterministic ordering: sets sorted by primary, members in stored order,
// map keys sorted. The bytes are exactly what encoding/json renders for
// the schema structs, appended directly into one presized buffer.
func (l *List) JSON() []byte {
	n := len(`{"sets":[]}`)
	for _, s := range l.sets {
		n += SetJSONSize(s) + 1
	}
	dst := append(make([]byte, 0, n), `{"sets":[`...)
	for k, i := range l.order {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = AppendSetJSON(dst, l.sets[i])
	}
	return append(dst, "]}"...)
}

// MarshalJSONIndent is MarshalJSON with two-space indentation, matching the
// formatting of the upstream list file.
func (l *List) MarshalJSONIndent() ([]byte, error) {
	raw, err := l.MarshalJSON()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// MarshalSetJSON serializes a single set in the upstream schema.
func MarshalSetJSON(s *Set) ([]byte, error) {
	return AppendSetJSON(make([]byte, 0, SetJSONSize(s)), s), nil
}

// SetJSONSize is the length of AppendSetJSON's output for s when no
// string needs an escape, and a starting capacity otherwise.
func SetJSONSize(s *Set) int {
	n := len(`{"primary":}`) + originSize(s.Primary)
	if s.Contact != "" {
		n += len(`"contact":"",`) + len(s.Contact)
	}
	if len(s.Associated) > 0 {
		n += len(`,"associatedSites":`) + originsSize(s.Associated)
	}
	if len(s.Service) > 0 {
		n += len(`,"serviceSites":`) + originsSize(s.Service)
	}
	if len(s.RationaleBySite) > 0 {
		n += len(`,"rationaleBySite":{}`) + len(s.RationaleBySite) - 1
		for site, why := range s.RationaleBySite {
			n += originSize(site) + len(`:""`) + len(why)
		}
	}
	if len(s.CCTLDs) > 0 {
		n += len(`,"ccTLDs":{}`) + len(s.CCTLDs) - 1
		for base, aliases := range s.CCTLDs {
			n += originSize(base) + len(`:`) + originsSize(aliases)
		}
	}
	return n
}

// originSize is the length of appendOrigin's output for host when it
// needs no escape.
func originSize(host string) int { return len(`"https://"`) + len(host) }

// originsSize is the length of appendOrigins' output for hosts when none
// needs an escape.
func originsSize(hosts []string) int {
	n := len(`[]`) + max(len(hosts)-1, 0)
	for _, h := range hosts {
		n += originSize(h)
	}
	return n
}

// AppendSetJSON appends one set as encoding/json renders the upstream
// schema: fields in schema order, empty optional fields omitted, every
// host in origin form, map keys in sorted order. It is the one encoder of
// a set: JSON joins its output, and so does the serve plane's /v1/list.
func AppendSetJSON(dst []byte, s *Set) []byte {
	// Map keys are sorted on the stack unless a map has more than this.
	var stack [16]string
	dst = append(dst, '{')
	if s.Contact != "" {
		dst = append(dst, `"contact":`...)
		dst = AppendJSONString(dst, s.Contact)
		dst = append(dst, ',')
	}
	dst = append(dst, `"primary":`...)
	dst = appendOrigin(dst, s.Primary)
	if len(s.Associated) > 0 {
		dst = append(dst, `,"associatedSites":`...)
		dst = appendOrigins(dst, s.Associated)
	}
	if len(s.Service) > 0 {
		dst = append(dst, `,"serviceSites":`...)
		dst = appendOrigins(dst, s.Service)
	}
	if len(s.RationaleBySite) > 0 {
		dst = append(dst, `,"rationaleBySite":{`...)
		for i, site := range appendSortedKeys(stack[:0], s.RationaleBySite) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendOrigin(dst, site)
			dst = append(dst, ':')
			dst = AppendJSONString(dst, s.RationaleBySite[site])
		}
		dst = append(dst, '}')
	}
	if len(s.CCTLDs) > 0 {
		dst = append(dst, `,"ccTLDs":{`...)
		for i, base := range appendSortedKeys(stack[:0], s.CCTLDs) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendOrigin(dst, base)
			dst = append(dst, ':')
			dst = appendOrigins(dst, s.CCTLDs[base])
		}
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// appendOrigin appends host in upstream origin form ("https://" + host)
// as a JSON string.
func appendOrigin(dst []byte, host string) []byte {
	dst = append(dst, `"https://`...)
	return append(appendJSONStringBody(dst, host), '"')
}

// appendOrigins appends hosts as a JSON array of origins; an empty slice
// renders as [], as encoding/json renders an empty non-nil slice.
func appendOrigins(dst []byte, hosts []string) []byte {
	dst = append(dst, '[')
	for i, h := range hosts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendOrigin(dst, h)
	}
	return append(dst, ']')
}

// hexDigits feeds the \u00xx escapes, matching encoding/json's lowercase.
const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json's HTML-escaping encoder
// (the Marshal default) passes through verbatim inside a string.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0; b < utf8.RuneSelf; b++ {
		t[b] = b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return
}()

// The string kernels, scanner.str and appendJSONStringBody, skip plain
// ASCII eight bytes at a time: each little-endian word is tested for the
// bytes the kernel must look at with bitwise arithmetic on all eight
// bytes at once (SWAR). For a word x, (x-swarOnes)&^x has the high bit
// set in each zero byte of x, so x = w^(swarOnes*c) flags the bytes
// equal to c; (w-swarOnes*0x20)&^w flags the bytes below 0x20, and w
// itself the bytes from 0x80. A borrow can flag a byte only above a
// byte that truly matches, so the lowest flagged byte is always a true
// match, and the word's trailing zero bits locate it.
const (
	swarOnes = 0x0101010101010101
	swarHigh = 0x8080808080808080
)

// strStops flags the bytes of w that scanner.str handles one at a time:
// '"', '\\', control bytes below 0x20 and non-ASCII bytes.
func strStops(w uint64) uint64 {
	q, b := w^(swarOnes*'"'), w^(swarOnes*'\\')
	return ((w-swarOnes*0x20)&^w | w | (q-swarOnes)&^q | (b-swarOnes)&^b) & swarHigh
}

// escapeStops flags the bytes of w that jsonSafe does not pass through:
// strStops' bytes plus the HTML escapes '<', '>' and '&'. '"' (0x22) and
// '&' (0x26) differ only in bit 2, and '<' (0x3c) and '>' (0x3e) only in
// bit 1, so setting that bit in every byte tests each pair at once.
func escapeStops(w uint64) uint64 {
	qa := (w | swarOnes*4) ^ (swarOnes * '&')
	lg := (w | swarOnes*2) ^ (swarOnes * '>')
	b := w ^ (swarOnes * '\\')
	return ((w-swarOnes*0x20)&^w | w | (qa-swarOnes)&^qa | (lg-swarOnes)&^lg | (b-swarOnes)&^b) & swarHigh
}

// load64 returns s[i:i+8] as a little-endian word.
func load64(s string, i int) uint64 {
	s = s[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// AppendJSONString appends the encoding/json encoding of s — including
// the HTML escapes (<, >, & → \u003c, \u003e, \u0026) and the
// invalid-UTF-8 and U+2028/U+2029 replacements — so hand-assembled JSON
// is byte-identical to what json.Marshal would have produced. Held to
// Marshal by TestAppendJSONStringMatchesMarshal.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	return append(appendJSONStringBody(dst, s), '"')
}

// appendJSONStringBody is AppendJSONString without the quotes. Runs of
// bytes jsonSafe passes through are skipped a word at a time.
func appendJSONStringBody(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		for ; i+8 <= len(s); i += 8 {
			if m := escapeStops(load64(s, i)); m != 0 {
				i += bits.TrailingZeros64(m) >> 3
				break
			}
		}
		if i == len(s) {
			break
		}
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(dst, s[start:]...)
}

// Hash returns a hex SHA-256 digest of the list's semantic content: the
// SHA-256 over each set's SHA-256 digest, sets ordered by primary. A set's
// digest is taken over its NUL-separated framing: "set", its primary and
// its contact, then its members in Members() order, then its rationales
// by sorted key. Two lists hash equal iff they describe the same sets,
// independent of input formatting or set order — the cheap identity
// check reload/poll loops use to gate a snapshot swap. Because the hash
// composes from per-set digests, Revision.Hash gives the same value from
// the digests its parse kept, framing only the sets that changed.
func (l *List) Hash() string {
	var f setFramer
	return hashDigests(l.order, func(i int32) [sha256.Size]byte { return f.digest(l.sets[i]) })
}

// hashDigests returns the hex SHA-256 over sum(i) for each i in order.
func hashDigests(order []int32, sum func(i int32) [sha256.Size]byte) string {
	h := sha256.New()
	for _, i := range order {
		d := sum(i)
		h.Write(d[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// setFramer computes set digests for Hash. Each set's framing is
// appended into one reused buffer and its map keys are sorted in one
// reused slice, so the allocations do not grow with the number of sets.
type setFramer struct {
	buf  []byte
	keys []string
}

// digest returns the SHA-256 of s's framing.
func (f *setFramer) digest(s *Set) [sha256.Size]byte {
	buf := append(f.buf[:0], "set\x00"...)
	buf = append(buf, s.Primary...)
	buf = append(buf, 0)
	buf = append(buf, s.Contact...)
	buf = append(buf, 0)
	// The members in Members() order.
	buf = appendHashMember(buf, RolePrimary, s.Primary, "")
	for _, a := range s.Associated {
		buf = appendHashMember(buf, RoleAssociated, a, "")
	}
	for _, v := range s.Service {
		buf = appendHashMember(buf, RoleService, v, "")
	}
	f.keys = appendSortedKeys(f.keys[:0], s.CCTLDs)
	for _, base := range f.keys {
		for _, alias := range s.CCTLDs[base] {
			buf = appendHashMember(buf, RoleCCTLD, alias, base)
		}
	}
	f.keys = appendSortedKeys(f.keys[:0], s.RationaleBySite)
	for _, site := range f.keys {
		buf = append(buf, "r\x00"...)
		buf = append(buf, site...)
		buf = append(buf, 0)
		buf = append(buf, s.RationaleBySite[site]...)
		buf = append(buf, 0)
	}
	f.buf = buf
	return sha256.Sum256(buf)
}

// appendHashMember appends one member's framing in Hash.
func appendHashMember(buf []byte, role Role, site, aliasOf string) []byte {
	buf = append(buf, "m\x00"...)
	buf = strconv.AppendInt(buf, int64(role), 10)
	buf = append(buf, 0)
	buf = append(buf, site...)
	buf = append(buf, 0)
	buf = append(buf, aliasOf...)
	return append(buf, 0)
}

// Version identifies one list revision held by a version store: the
// list's semantic content hash plus provenance — where the revision came
// from, when this process obtained it, and the logical time the revision
// describes. Two revisions with equal Hash carry the same sets regardless
// of provenance; version stores key on Hash and file a re-added revision
// under its latest provenance.
type Version struct {
	// Hash is the list's content hash (List.Hash): the SHA-256 over its
	// sets' content digests in primary order, which Revision.Hash gives
	// without framing the sets a revision shares with the one before it.
	Hash string
	// Source identifies where the revision came from: a file path, a URL,
	// "timeline:2023-04" for a bulk-loaded monthly snapshot, or a caller
	// label such as "swap".
	Source string
	// ObservedAt is when this process obtained the revision.
	ObservedAt time.Time
	// AsOf is the logical time the revision describes — the upstream
	// Last-Modified, the file mtime, or the month a historical snapshot
	// materialises. Time-travel (as-of) queries resolve against it.
	AsOf time.Time
}

// ID returns the short form of the version hash used in logs and CLI
// tables.
func (v Version) ID() string {
	if len(v.Hash) <= 12 {
		return v.Hash
	}
	return v.Hash[:12]
}

// Diff describes how a list changed between two snapshots.
type Diff struct {
	// AddedSets and RemovedSets identify sets (by primary) present in only
	// one snapshot.
	AddedSets   []string
	RemovedSets []string
	// AddedMembers and RemovedMembers list member-level changes within
	// sets that exist in both snapshots, as "primary:site" strings.
	AddedMembers   []string
	RemovedMembers []string
}

// Empty reports whether the diff records no changes.
func (d Diff) Empty() bool {
	return len(d.AddedSets) == 0 && len(d.RemovedSets) == 0 &&
		len(d.AddedMembers) == 0 && len(d.RemovedMembers) == 0
}

// Inverse returns the reverse diff (new→old): adds and removes swap
// roles. DiffLists is symmetric this way — member entries are only
// reported for sets present in both snapshots — so
// DiffLists(b, a) == DiffLists(a, b).Inverse(). The slices are shared
// with the receiver; diffs are treated as immutable.
func (d Diff) Inverse() Diff {
	return Diff{
		AddedSets:      d.RemovedSets,
		RemovedSets:    d.AddedSets,
		AddedMembers:   d.RemovedMembers,
		RemovedMembers: d.AddedMembers,
	}
}

// Summary renders the diff compactly for one log line: counts plus the
// first few names per category.
func (d Diff) Summary() string {
	if d.Empty() {
		return "no semantic changes"
	}
	var parts []string
	add := func(label string, items []string) {
		if len(items) == 0 {
			return
		}
		const show = 3
		names := items
		suffix := ""
		if len(names) > show {
			names = names[:show]
			suffix = ", ..."
		}
		parts = append(parts, fmt.Sprintf("%s %d (%s%s)", label, len(items), strings.Join(names, ", "), suffix))
	}
	add("+sets", d.AddedSets)
	add("-sets", d.RemovedSets)
	add("+members", d.AddedMembers)
	add("-members", d.RemovedMembers)
	return strings.Join(parts, ", ")
}

// DiffLists compares two list snapshots, keyed by set primary. A set
// both lists share (ParseJSONFrom) has no member changes and is skipped.
func DiffLists(old, new *List) Diff {
	var d Diff
	oldByPrimary := make(map[string]*Set, len(old.sets))
	for _, s := range old.sets {
		oldByPrimary[s.Primary] = s
	}
	newByPrimary := make(map[string]*Set, len(new.sets))
	for _, s := range new.sets {
		newByPrimary[s.Primary] = s
	}
	for p := range newByPrimary {
		if _, ok := oldByPrimary[p]; !ok {
			d.AddedSets = append(d.AddedSets, p)
		}
	}
	for p := range oldByPrimary {
		if _, ok := newByPrimary[p]; !ok {
			d.RemovedSets = append(d.RemovedSets, p)
		}
	}
	for p, ns := range newByPrimary {
		os, ok := oldByPrimary[p]
		if !ok || os == ns {
			continue
		}
		oldSites := siteSet(os)
		newSites := siteSet(ns)
		for site := range newSites {
			if !oldSites[site] {
				d.AddedMembers = append(d.AddedMembers, p+":"+site)
			}
		}
		for site := range oldSites {
			if !newSites[site] {
				d.RemovedMembers = append(d.RemovedMembers, p+":"+site)
			}
		}
	}
	sort.Strings(d.AddedSets)
	sort.Strings(d.RemovedSets)
	sort.Strings(d.AddedMembers)
	sort.Strings(d.RemovedMembers)
	return d
}

// ComposeDiffs combines a (old→mid) and b (mid→new) into the diff
// old→new. Changes that cancel across the span disappear: a set added in
// a and removed in b (or a member added then removed, and vice versa)
// never existed in both endpoints, so the composed diff omits it.
// Member-level changes inside a set that is added or removed over the
// span are folded into the set-level entry, matching DiffLists, which
// only reports member changes for sets present in both snapshots.
//
// One case is unrecoverable from the two diffs alone: a set removed in a
// and re-added in b (or the reverse) exists in both endpoints, but its
// old→new membership delta was lost with the intermediate list.
// ComposeDiffs reports such a set as unchanged, which matches DiffLists
// exactly when the set returned with identical membership. Callers that
// retain the endpoint lists (a version store) should prefer DiffLists
// between them; composition is for pipelines that only kept the
// per-transition diffs, such as month-over-month churn rollups.
func ComposeDiffs(a, b Diff) Diff {
	var d Diff
	addedA, removedA := toSet(a.AddedSets), toSet(a.RemovedSets)
	addedB, removedB := toSet(b.AddedSets), toSet(b.RemovedSets)
	// Net set-level changes: an add survives unless the later (or
	// earlier) leg undoes it.
	for p := range addedA {
		if !removedB[p] {
			d.AddedSets = append(d.AddedSets, p)
		}
	}
	for p := range addedB {
		if !removedA[p] {
			d.AddedSets = append(d.AddedSets, p)
		}
	}
	for p := range removedA {
		if !addedB[p] {
			d.RemovedSets = append(d.RemovedSets, p)
		}
	}
	for p := range removedB {
		if !addedA[p] {
			d.RemovedSets = append(d.RemovedSets, p)
		}
	}
	netAdded, netRemoved := toSet(d.AddedSets), toSet(d.RemovedSets)
	// Member entries ("primary:site") survive unless cancelled by the
	// other leg or absorbed into a set-level add/remove.
	memberKept := func(entries []string, cancel map[string]bool) []string {
		var out []string
		for _, m := range entries {
			primary, _, _ := strings.Cut(m, ":")
			if cancel[m] || netAdded[primary] || netRemoved[primary] {
				continue
			}
			out = append(out, m)
		}
		return out
	}
	addedMB, removedMB := toSet(b.AddedMembers), toSet(b.RemovedMembers)
	addedMA, removedMA := toSet(a.AddedMembers), toSet(a.RemovedMembers)
	d.AddedMembers = append(memberKept(a.AddedMembers, removedMB), memberKept(b.AddedMembers, removedMA)...)
	d.RemovedMembers = append(memberKept(a.RemovedMembers, addedMB), memberKept(b.RemovedMembers, addedMA)...)
	sort.Strings(d.AddedSets)
	sort.Strings(d.RemovedSets)
	sort.Strings(d.AddedMembers)
	sort.Strings(d.RemovedMembers)
	return d
}

func toSet(items []string) map[string]bool {
	m := make(map[string]bool, len(items))
	for _, s := range items {
		m[s] = true
	}
	return m
}

func siteSet(s *Set) map[string]bool {
	m := make(map[string]bool, s.Size())
	for _, site := range s.Sites() {
		m[site] = true
	}
	return m
}

// CanonicalHost normalizes a site spelling to the canonical bare-host form
// list lookups use: lowercased, scheme prefix ("https://" or "http://"),
// URL suffixes (path, ?query, #fragment), userinfo ("user:pass@"),
// ":port" suffix, and trailing root-label dot stripped, whitespace
// trimmed on both sides of the prefix strip. All of "example.com",
// "HTTPS://EXAMPLE.COM:443/", "https://example.com/login?next=/#top",
// "user@example.com", and "example.com." canonicalize to "example.com",
// so lookup functions answer the same for every legitimate spelling of a
// host. List parsing (ParseJSON) stays strict and is unaffected.
//
//rws:hotpath
func CanonicalHost(s string) string { return canonicalHost(s) }

// canonicalHost is CanonicalHost; lookup functions call it directly.
// It runs the single-pass normalization to a fixpoint: one strip can
// expose another strippable suffix ("example.com.." leaves one dot,
// "a:80." leaves a port, "user @host" leaves a space), and iterating
// until the string stops changing is what makes CanonicalHost idempotent
// — the invariant the fuzz harness holds it to. Each pass only ever
// shortens the string, so the loop terminates; legitimate spellings
// converge on the first pass and pay one extra no-op pass.
//
//rws:hotpath
func canonicalHost(s string) string {
	for {
		next := canonicalHostPass(s)
		if next == s {
			return next
		}
		s = next
	}
}

// canonicalHostPass is one normalization pass.
//
//rws:hotpath
func canonicalHostPass(s string) string {
	s = strings.TrimSpace(strings.ToLower(s))
	s = strings.TrimPrefix(s, "https://")
	s = strings.TrimPrefix(s, "http://")
	s = strings.TrimSpace(s)
	// URL-shaped inputs: the authority ends at the first path, query, or
	// fragment delimiter. Truncating here (rather than only trimming a
	// trailing "/") is what keeps "example.com/login" from silently
	// missing the index on every lookup.
	if i := strings.IndexAny(s, "/?#"); i >= 0 {
		s = s[:i]
	}
	// Anything left before an '@' is userinfo, not host.
	if i := strings.LastIndexByte(s, '@'); i >= 0 {
		s = s[i+1:]
	}
	if i := strings.LastIndexByte(s, ':'); i >= 0 && isPort(s[i+1:]) {
		s = s[:i]
	}
	s = strings.TrimSuffix(s, ".")
	return s
}

// isPort reports whether s is a plausible port number, so ":443" is
// stripped but an IPv6-ish or malformed suffix is left alone.
//
//rws:hotpath
//rws:allocfree
func isPort(s string) bool {
	if len(s) == 0 || len(s) > 5 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// appendSortedKeys appends m's keys to dst in sorted order.
func appendSortedKeys[V any](dst []string, m map[string]V) []string {
	start := len(dst)
	dst = slices.Grow(dst, len(m))
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst[start:])
	return dst
}
