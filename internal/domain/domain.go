// Package domain provides domain-name normalization and the site-level
// concepts the Related Website Sets machinery is built from: registrable
// domains (eTLD+1, the Web's site-as-privacy-boundary unit described in §2
// of the paper), second-level-domain (SLD) extraction for the Figure 3
// edit-distance analysis, and ccTLD-variant detection for the RWS "ccTLDs"
// subset rules.
package domain

import (
	"errors"
	"fmt"
	"strings"

	"rwskit/internal/psl"
)

// Errors returned by Normalize and the Site constructors.
var (
	ErrEmpty          = errors.New("domain: empty domain")
	ErrTooLong        = errors.New("domain: name exceeds 253 characters")
	ErrBadLabel       = errors.New("domain: invalid label")
	ErrNotRegistrable = errors.New("domain: not a registrable domain (eTLD+1)")
	ErrNotHTTPS       = errors.New("domain: origin scheme is not https")
)

// Normalize lowercases d, strips a single trailing dot, and validates it as
// an LDH (letters-digits-hyphen) hostname: labels of 1-63 characters that do
// not start or end with '-', total length at most 253. It does not consult
// the PSL; use Site for registrable-domain semantics.
func Normalize(d string) (string, error) {
	return ldhHost(strings.ToLower(strings.TrimSpace(d)))
}

// ldhHost is Normalize without the trim and the Unicode lowercasing: it
// strips one trailing dot and, in one loop over the name, checks each
// label's length, hyphens and letters and notes any uppercase letter; it
// lowercases, and so allocates, only if it saw one.
func ldhHost(d string) (string, error) {
	d = strings.TrimSuffix(d, ".")
	if d == "" {
		return "", ErrEmpty
	}
	if len(d) > 253 {
		return "", ErrTooLong
	}
	upper := false
	start := 0 // the first byte of the label being checked
	for i := 0; i < len(d); i++ {
		switch ldhClass[d[i]] {
		case ldhPlain:
		case ldhUpper:
			upper = true
		case ldhDot:
			if !ldhLabel(d[start:i]) {
				return "", badLabel(d, start)
			}
			start = i + 1
		default:
			return "", badLabel(d, start)
		}
	}
	if !ldhLabel(d[start:]) {
		return "", badLabel(d, start)
	}
	if upper {
		return strings.ToLower(d), nil
	}
	return d, nil
}

// The byte classes of ldhHost's loop: letters, digits and '-' need no
// more than the label checks; anything else is a bad label.
const (
	ldhBad = iota
	ldhPlain
	ldhUpper
	ldhDot
)

var ldhClass = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = ldhPlain, ldhUpper
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = ldhPlain
	}
	t['-'], t['.'] = ldhPlain, ldhDot
	return
}()

// ldhLabel reports whether label has 1–63 bytes and neither starts nor
// ends with '-'; ldhHost has checked its bytes.
func ldhLabel(label string) bool {
	return len(label) > 0 && len(label) <= 63 && label[0] != '-' && label[len(label)-1] != '-'
}

// badLabel is the error for name d's label starting at byte start.
func badLabel(d string, start int) error {
	label, _, _ := strings.Cut(d[start:], ".")
	return fmt.Errorf("%w: %q in %q", ErrBadLabel, label, d)
}

// Site is a registrable domain (eTLD+1) — the privacy-boundary unit. The
// zero value is invalid; construct with NewSite or SiteOf.
type Site struct {
	etldPlusOne string
	suffix      string
	icannSuffix bool
}

// NewSite validates that d is exactly a registrable domain against list and
// returns it as a Site. The RWS submission rules require every set member to
// be an eTLD+1; violations surface as the "... isn't an eTLD+1" bot errors
// of Table 3.
func NewSite(list *psl.List, d string) (Site, error) {
	norm, err := Normalize(d)
	if err != nil {
		return Site{}, err
	}
	e, err := list.ETLDPlusOne(norm)
	if err != nil {
		return Site{}, fmt.Errorf("%w: %q: %v", ErrNotRegistrable, d, err)
	}
	if e != norm {
		return Site{}, fmt.Errorf("%w: %q (registrable domain is %q)", ErrNotRegistrable, d, e)
	}
	suffix, icann := list.PublicSuffix(norm)
	return Site{etldPlusOne: norm, suffix: suffix, icannSuffix: icann}, nil
}

// SiteOf maps any host (e.g. "shop.example.co.uk") to its Site
// ("example.co.uk"). This is the mapping browsers apply when deciding which
// storage partition a context belongs to.
func SiteOf(list *psl.List, host string) (Site, error) {
	norm, err := Normalize(host)
	if err != nil {
		return Site{}, err
	}
	e, err := list.ETLDPlusOne(norm)
	if err != nil {
		return Site{}, fmt.Errorf("%w: %q: %v", ErrNotRegistrable, host, err)
	}
	suffix, icann := list.PublicSuffix(e)
	return Site{etldPlusOne: e, suffix: suffix, icannSuffix: icann}, nil
}

// String returns the registrable domain.
func (s Site) String() string { return s.etldPlusOne }

// IsZero reports whether s is the zero (invalid) Site.
func (s Site) IsZero() bool { return s.etldPlusOne == "" }

// Suffix returns the site's public suffix (its eTLD).
func (s Site) Suffix() string { return s.suffix }

// ICANNSuffix reports whether the suffix comes from the PSL's ICANN section.
func (s Site) ICANNSuffix() bool { return s.icannSuffix }

// SLD returns the second-level domain: the single label to the left of the
// public suffix. For "poalim.xyz" this is "poalim"; for "example.co.uk" it
// is "example". Figure 3 of the paper compares these labels across set
// members with Levenshtein distance.
func (s Site) SLD() string {
	return strings.TrimSuffix(strings.TrimSuffix(s.etldPlusOne, s.suffix), ".")
}

// Equal reports whether two sites are the same registrable domain.
func (s Site) Equal(o Site) bool { return s.etldPlusOne == o.etldPlusOne }

// SLD is a convenience that extracts the second-level domain of d using
// list, without requiring d to be exactly an eTLD+1 (hosts are reduced to
// their site first).
func SLD(list *psl.List, d string) (string, error) {
	s, err := SiteOf(list, d)
	if err != nil {
		return "", err
	}
	return s.SLD(), nil
}

// IsCCTLDVariant reports whether candidate is a ccTLD variation of base per
// the RWS subset rules: the two registrable domains share the same SLD but
// differ in their public suffix, and at least one of the suffixes is
// country-code based (its final label is a two-letter ccTLD). For example
// "example.co.uk" is a ccTLD variant of "example.com", and vice versa;
// "poalim.site" is NOT a ccTLD variant of "poalim.xyz" because neither
// suffix is country-code based.
func IsCCTLDVariant(base, candidate Site) bool {
	if base.Equal(candidate) {
		return false
	}
	if base.SLD() != candidate.SLD() || base.SLD() == "" {
		return false
	}
	if base.Suffix() == candidate.Suffix() {
		return false
	}
	return isCCSuffix(base.Suffix()) || isCCSuffix(candidate.Suffix())
}

func isCCSuffix(suffix string) bool {
	labels := strings.Split(suffix, ".")
	last := labels[len(labels)-1]
	return len(last) == 2
}

// HTTPSOrigin is a scheme-https origin with no port or path. The RWS list
// format stores members as "https://example.com"; validation requires the
// https scheme (one of the automated checks behind Table 3).
type HTTPSOrigin struct {
	host string
}

// ParseHTTPSOrigin parses s as an https origin. It accepts bare domains
// ("example.com") as shorthand, any case of the scheme, one trailing "/"
// and a trailing root dot, and rejects any other scheme, userinfo, port
// (even an empty one), path, query, or fragment (even an empty "?" or
// "#"). The host must be an ASCII LDH name, checked as Normalize checks
// it, in one pass over the host (ldhHost), with no allocation unless the
// host needs lowercasing.
func ParseHTTPSOrigin(s string) (HTTPSOrigin, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return HTTPSOrigin{}, ErrEmpty
	}
	i := strings.Index(s, "://")
	if i < 0 {
		norm, err := Normalize(s)
		if err != nil {
			return HTTPSOrigin{}, err
		}
		return HTTPSOrigin{host: norm}, nil
	}
	if !isHTTPS(s[:i]) {
		return HTTPSOrigin{}, fmt.Errorf("%w: %q", ErrNotHTTPS, s)
	}
	host := strings.TrimSuffix(s[i+len("://"):], "/")
	norm, err := ldhHost(host)
	if err != nil {
		if strings.ContainsAny(host, "@:/?#") {
			return HTTPSOrigin{}, fmt.Errorf("domain: origin %q must be scheme and host only", s)
		}
		return HTTPSOrigin{}, err
	}
	return HTTPSOrigin{host: norm}, nil
}

// isHTTPS reports whether scheme is "https" in any ASCII case.
func isHTTPS(scheme string) bool {
	if len(scheme) != len("https") {
		return false
	}
	for i := 0; i < len(scheme); i++ {
		if scheme[i]|0x20 != "https"[i] {
			return false
		}
	}
	return true
}

// Host returns the origin's host.
func (o HTTPSOrigin) Host() string { return o.host }

// String returns the canonical "https://host" form.
func (o HTTPSOrigin) String() string { return "https://" + o.host }

// IsZero reports whether o is the zero origin.
func (o HTTPSOrigin) IsZero() bool { return o.host == "" }
