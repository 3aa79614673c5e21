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
// may share it, so every retained revision would see the change.
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
	for _, base := range sortedKeys(s.CCTLDs) {
		for _, alias := range s.CCTLDs[base] {
			out = append(out, Member{Site: alias, Role: RoleCCTLD, AliasOf: base})
		}
	}
	return out
}

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
func NewList(sets []*Set) (*List, error) {
	sites := 0
	for _, s := range sets {
		if s != nil {
			sites += s.Size()
		}
	}
	l := &List{sets: make([]*Set, 0, len(sets)), index: make(map[string]membership, sites)}
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
		for _, base := range sortedKeys(s.CCTLDs) {
			for _, alias := range s.CCTLDs[base] {
				if err := l.indexMember(s, pos, alias, RoleCCTLD); err != nil {
					return nil, err
				}
			}
		}
		l.sets = append(l.sets, s)
	}
	return l, nil
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
	ordered := l.byPrimary()
	n := len(`{"sets":[]}`)
	for _, s := range ordered {
		n += setJSONSize(s) + 1
	}
	dst := append(make([]byte, 0, n), `{"sets":[`...)
	for i, s := range ordered {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendSetJSON(dst, s)
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
	return appendSetJSON(make([]byte, 0, setJSONSize(s)), s), nil
}

// setJSONSize estimates the encoded size of one set: exact for ASCII
// content that needs no escapes, and only a starting capacity otherwise.
func setJSONSize(s *Set) int {
	const origin = len(`"https://",`)
	n := len(`{"contact":"","primary":"","associatedSites":[],"serviceSites":[],"rationaleBySite":{},"ccTLDs":{}}`) +
		len(s.Contact) + len(s.Primary) + origin
	for _, a := range s.Associated {
		n += len(a) + origin
	}
	for _, v := range s.Service {
		n += len(v) + origin
	}
	for site, why := range s.RationaleBySite {
		n += len(site) + origin + len(why) + len(`"":`)
	}
	for base, aliases := range s.CCTLDs {
		n += len(base) + origin + len(`[]:`)
		for _, a := range aliases {
			n += len(a) + origin
		}
	}
	return n
}

// appendSetJSON appends one set as encoding/json renders the upstream
// schema: fields in schema order, empty optional fields omitted, every
// host in origin form, map keys in sorted order.
func appendSetJSON(dst []byte, s *Set) []byte {
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
		for i, site := range sortedStringKeys(s.RationaleBySite) {
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
		for i, base := range sortedKeys(s.CCTLDs) {
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

// AppendJSONString appends the encoding/json encoding of s — including
// the HTML escapes (<, >, & → \u003c, \u003e, \u0026) and the
// invalid-UTF-8 and U+2028/U+2029 replacements — so hand-assembled JSON
// is byte-identical to what json.Marshal would have produced. Held to
// Marshal by TestAppendJSONStringMatchesMarshal.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	return append(appendJSONStringBody(dst, s), '"')
}

// appendJSONStringBody is AppendJSONString without the quotes.
func appendJSONStringBody(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
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

// Hash returns a hex SHA-256 digest of the list's semantic content: sets
// ordered by primary, members in deterministic order, rationales by sorted
// key. Two lists hash equal iff they describe the same sets, independent of
// input formatting or set order — the cheap identity check reload/poll
// loops use to gate a snapshot swap. Each set's NUL-separated framing is
// appended into one reused buffer and written to the digest once.
func (l *List) Hash() string {
	h := sha256.New()
	var buf []byte
	for _, s := range l.byPrimary() {
		buf = append(buf[:0], "set\x00"...)
		buf = append(buf, s.Primary...)
		buf = append(buf, 0)
		buf = append(buf, s.Contact...)
		buf = append(buf, 0)
		for _, m := range s.Members() {
			buf = append(buf, "m\x00"...)
			buf = strconv.AppendInt(buf, int64(m.Role), 10)
			buf = append(buf, 0)
			buf = append(buf, m.Site...)
			buf = append(buf, 0)
			buf = append(buf, m.AliasOf...)
			buf = append(buf, 0)
		}
		for _, site := range sortedStringKeys(s.RationaleBySite) {
			buf = append(buf, "r\x00"...)
			buf = append(buf, site...)
			buf = append(buf, 0)
			buf = append(buf, s.RationaleBySite[site]...)
			buf = append(buf, 0)
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// byPrimary returns a copy of the list's sets sorted by primary, the
// order Hash and MarshalJSON walk.
func (l *List) byPrimary() []*Set {
	ordered := slices.Clone(l.sets)
	slices.SortFunc(ordered, func(a, b *Set) int { return strings.Compare(a.Primary, b.Primary) })
	return ordered
}

func sortedStringKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Version identifies one list revision held by a version store: the
// list's semantic content hash plus provenance — where the revision came
// from, when this process obtained it, and the logical time the revision
// describes. Two revisions with equal Hash carry the same sets regardless
// of provenance; version stores key on Hash and file a re-added revision
// under its latest provenance.
type Version struct {
	// Hash is the list's content hash (List.Hash).
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

func sortedKeys(m map[string][]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
