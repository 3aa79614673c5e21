package domain

import (
	"errors"
	"fmt"
	"net/url"
	"strings"
	"testing"

	"rwskit/internal/psl"
)

func TestNormalize(t *testing.T) {
	cases := []struct {
		in      string
		want    string
		wantErr error
	}{
		{"Example.COM", "example.com", nil},
		{"example.com.", "example.com", nil},
		{"  example.com \t", "example.com", nil},
		{"xn--bcher-kva.de", "xn--bcher-kva.de", nil},
		{"a-b.c-d.com", "a-b.c-d.com", nil},
		{"", "", ErrEmpty},
		{".", "", ErrEmpty},
		{"-bad.com", "", ErrBadLabel},
		{"bad-.com", "", ErrBadLabel},
		{"ba_d.com", "", ErrBadLabel},
		{"double..dot.com", "", ErrBadLabel},
		{"spa ce.com", "", ErrBadLabel},
		{strings.Repeat("a", 64) + ".com", "", ErrBadLabel},
		{strings.Repeat("a.", 130) + "com", "", ErrTooLong},
	}
	for _, tc := range cases {
		got, err := Normalize(tc.in)
		if tc.wantErr != nil {
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("Normalize(%q) err = %v, want %v", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("Normalize(%q) error: %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Normalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestNewSite(t *testing.T) {
	l := psl.Default()
	ok := []string{"example.com", "bild.de", "example.co.uk", "mysite.github.io", "poalim.xyz"}
	for _, d := range ok {
		s, err := NewSite(l, d)
		if err != nil {
			t.Errorf("NewSite(%q) error: %v", d, err)
			continue
		}
		if s.String() != d {
			t.Errorf("NewSite(%q).String() = %q", d, s.String())
		}
		if s.IsZero() {
			t.Errorf("NewSite(%q) is zero", d)
		}
	}
	bad := []string{"www.example.com", "com", "co.uk", "github.io", "", "a..b.com"}
	for _, d := range bad {
		if _, err := NewSite(l, d); err == nil {
			t.Errorf("NewSite(%q) succeeded, want error", d)
		}
	}
}

func TestSiteOf(t *testing.T) {
	l := psl.Default()
	cases := []struct {
		host string
		want string
	}{
		{"example.com", "example.com"},
		{"www.example.com", "example.com"},
		{"a.b.c.example.co.uk", "example.co.uk"},
		{"deep.mysite.github.io", "mysite.github.io"},
		{"WWW.Example.COM", "example.com"},
	}
	for _, tc := range cases {
		s, err := SiteOf(l, tc.host)
		if err != nil {
			t.Errorf("SiteOf(%q) error: %v", tc.host, err)
			continue
		}
		if s.String() != tc.want {
			t.Errorf("SiteOf(%q) = %q, want %q", tc.host, s.String(), tc.want)
		}
	}
	if _, err := SiteOf(l, "com"); err == nil {
		t.Error("SiteOf(com) should fail: bare public suffix has no site")
	}
}

func TestSLD(t *testing.T) {
	l := psl.Default()
	cases := []struct {
		domain string
		want   string
	}{
		{"poalim.xyz", "poalim"},
		{"poalim.site", "poalim"},
		{"example.co.uk", "example"},
		{"www.bild.de", "bild"},
		{"autobild.de", "autobild"},
		{"nourishingpursuits.com", "nourishingpursuits"},
	}
	for _, tc := range cases {
		got, err := SLD(l, tc.domain)
		if err != nil {
			t.Errorf("SLD(%q) error: %v", tc.domain, err)
			continue
		}
		if got != tc.want {
			t.Errorf("SLD(%q) = %q, want %q", tc.domain, got, tc.want)
		}
	}
}

func TestSiteSuffixAndICANN(t *testing.T) {
	l := psl.Default()
	s, err := NewSite(l, "example.co.uk")
	if err != nil {
		t.Fatal(err)
	}
	if s.Suffix() != "co.uk" || !s.ICANNSuffix() {
		t.Errorf("Suffix = %q icann=%v", s.Suffix(), s.ICANNSuffix())
	}
	p, err := NewSite(l, "mysite.github.io")
	if err != nil {
		t.Fatal(err)
	}
	if p.Suffix() != "github.io" || p.ICANNSuffix() {
		t.Errorf("Suffix = %q icann=%v", p.Suffix(), p.ICANNSuffix())
	}
}

func TestIsCCTLDVariant(t *testing.T) {
	l := psl.Default()
	mk := func(d string) Site {
		s, err := NewSite(l, d)
		if err != nil {
			t.Fatalf("NewSite(%q): %v", d, err)
		}
		return s
	}
	cases := []struct {
		base, cand string
		want       bool
	}{
		{"example.com", "example.co.uk", true},
		{"example.co.uk", "example.com", true},
		{"example.de", "example.com", true},
		{"example.com.au", "example.com", true},
		{"poalim.xyz", "poalim.site", false}, // neither suffix is a ccTLD
		{"example.com", "example.com", false},
		{"example.com", "other.de", false},
		{"example.de", "example.fr", true},
	}
	for _, tc := range cases {
		if got := IsCCTLDVariant(mk(tc.base), mk(tc.cand)); got != tc.want {
			t.Errorf("IsCCTLDVariant(%q, %q) = %v, want %v", tc.base, tc.cand, got, tc.want)
		}
	}
}

func TestIsCCTLDVariantZeroSite(t *testing.T) {
	if IsCCTLDVariant(Site{}, Site{}) {
		t.Error("zero sites must not be variants")
	}
}

// parseHTTPSOriginOracle is ParseHTTPSOrigin as first written, on
// net/url. The one-pass parser must never accept a spelling it rejects,
// nor canonicalize one to a different host.
func parseHTTPSOriginOracle(s string) (HTTPSOrigin, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return HTTPSOrigin{}, ErrEmpty
	}
	if !strings.Contains(s, "://") {
		norm, err := Normalize(s)
		if err != nil {
			return HTTPSOrigin{}, err
		}
		return HTTPSOrigin{host: norm}, nil
	}
	u, err := url.Parse(s)
	if err != nil {
		return HTTPSOrigin{}, fmt.Errorf("domain: parsing origin %q: %w", s, err)
	}
	if u.Scheme != "https" {
		return HTTPSOrigin{}, fmt.Errorf("%w: %q", ErrNotHTTPS, s)
	}
	if u.User != nil || u.Port() != "" || (u.Path != "" && u.Path != "/") || u.RawQuery != "" || u.Fragment != "" {
		return HTTPSOrigin{}, fmt.Errorf("domain: origin %q must be scheme and host only", s)
	}
	norm, err := Normalize(u.Hostname())
	if err != nil {
		return HTTPSOrigin{}, err
	}
	return HTTPSOrigin{host: norm}, nil
}

// originRows pins ParseHTTPSOrigin's result on each spelling next to
// the net/url oracle's: old and want are the canonical host, or "" for
// an error. The rows where they differ are the spellings the one-pass
// parser rejects on purpose.
var originRows = []struct {
	in, old, want string
}{
	{"https://example.com", "example.com", "example.com"},
	{"https://Example.COM", "example.com", "example.com"},
	{"HTTPS://example.com", "example.com", "example.com"},
	{"hTtPs://example.com", "example.com", "example.com"},
	{"https://example.com/", "example.com", "example.com"},
	{"https://example.com.", "example.com", "example.com"},
	{"https://example.com./", "example.com", "example.com"},
	{"  https://example.com/ \t", "example.com", "example.com"},
	{"example.com", "example.com", "example.com"},
	{"Example.COM.", "example.com", "example.com"},
	{"xn--bcher-kva.de", "xn--bcher-kva.de", "xn--bcher-kva.de"},
	{"http://example.com", "", ""},
	{"ftp://example.com", "", ""},
	{"https:/example.com", "", ""},
	{"https//example.com", "", ""},
	{"https://example.com:8443", "", ""},
	{"https://user@example.com", "", ""},
	{"https://example.com/path", "", ""},
	{"https://example.com//", "", ""},
	{"https://example.com?q=1", "", ""},
	{"https://example.com#frag", "", ""},
	{"https://example.com..", "", ""},
	{"https://exa mple.com", "", ""},
	{"https:// example.com", "", ""},
	{"https://exam%70le.com", "", ""},
	{"https://", "", ""},
	{"https:///", "", ""},
	{"", "", ""},
	{"https://bad..dot.com", "", ""},
	{"https://-bad.com", "", ""},
	{"example.com/x://y", "", ""},
	// Spellings net/url let through although they are not scheme and
	// host only: an empty port, query or fragment, a bracketed name,
	// and non-ASCII that Unicode lowercasing or trimming turned into an
	// ASCII host.
	{"https://example.com:", "example.com", ""},
	{"https://example.com:/", "example.com", ""},
	{"https://example.com?", "example.com", ""},
	{"https://example.com/?", "example.com", ""},
	{"https://example.com#", "example.com", ""},
	{"https://example.com/#", "example.com", ""},
	{"https://[example.com]", "example.com", ""},
	{"https://\u212aelvin.com", "kelvin.com", ""},
	{"https://\u00a0example.com", "example.com", ""},
}

func TestParseHTTPSOrigin(t *testing.T) {
	host := func(o HTTPSOrigin, err error) string {
		if err != nil {
			return ""
		}
		return o.Host()
	}
	for _, row := range originRows {
		if got := host(parseHTTPSOriginOracle(row.in)); got != row.old {
			t.Errorf("oracle(%q) = %q, want %q", row.in, got, row.old)
		}
		o, err := ParseHTTPSOrigin(row.in)
		if got := host(o, err); got != row.want {
			t.Errorf("ParseHTTPSOrigin(%q) = %q (err %v), want %q", row.in, got, err, row.want)
		}
		if err == nil && o.String() != "https://"+row.want {
			t.Errorf("ParseHTTPSOrigin(%q).String() = %q", row.in, o.String())
		}
	}
	if _, err := ParseHTTPSOrigin("http://example.com"); !errors.Is(err, ErrNotHTTPS) {
		t.Errorf("http origin: err = %v, want ErrNotHTTPS", err)
	}
	var zero HTTPSOrigin
	if !zero.IsZero() {
		t.Error("zero origin should report IsZero")
	}
}

// FuzzParseHTTPSOrigin holds the one-pass parser to the net/url oracle:
// whatever it accepts, the oracle accepts as the same host; whatever the
// oracle accepts and it rejects, it accepts in canonical "https://host"
// form, so a rejection is only ever about spelling.
func FuzzParseHTTPSOrigin(f *testing.F) {
	for _, row := range originRows {
		f.Add(row.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseHTTPSOrigin(s)
		want, oerr := parseHTTPSOriginOracle(s)
		switch {
		case err == nil && oerr != nil:
			t.Fatalf("ParseHTTPSOrigin(%q) = %q, oracle rejects: %v", s, got.Host(), oerr)
		case err == nil && got != want:
			t.Fatalf("ParseHTTPSOrigin(%q) = %q, oracle %q", s, got.Host(), want.Host())
		case err != nil && oerr == nil:
			back, err := ParseHTTPSOrigin(want.String())
			if err != nil || back != want {
				t.Fatalf("ParseHTTPSOrigin(%q) rejects the oracle's canonical form of %q: %v", want.String(), s, err)
			}
		}
	})
}

func BenchmarkSiteOf(b *testing.B) {
	l := psl.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SiteOf(l, "a.b.example.co.uk"); err != nil {
			b.Fatal(err)
		}
	}
}
