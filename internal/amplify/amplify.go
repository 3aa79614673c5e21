// Package amplify generates synthetic Related Website Sets lists at
// scales the real list never reaches — 10⁴, 10⁵, 10⁶ sets — while
// keeping the composition paper-shaped. The real RWS list holds a few
// hundred sets; the ROADMAP north star is a serve plane for millions of
// users querying millions of sets, and studying set dynamics at that
// scale (as the "Relationships are Complicated!" line of work does for
// real membership churn) first requires generating and holding
// realistically-shaped large lists.
//
// The generator is deterministic and seeded: the same Config produces
// bit-for-bit the same list (and therefore the same core.List.Hash),
// and different seeds produce different lists. Per-set fan-out —
// associated, service, and ccTLD member counts — is drawn from the
// empirical distributions of the embedded 26 March 2024 reconstruction
// (a Profile), so aggregate stats such as "92.7% of sets have associated
// members, mean 2.6 associated per set, ~9.3% of associated members
// share the primary's SLD" survive amplification within sampling noise.
// Domain naming reuses the rwskit/internal/sitegen category fragment
// vocabulary, with the set index embedded in every SLD so a million
// generated sets are disjoint by construction; every generated set
// passes rwskit/internal/validate's structural checks (registrable
// eTLD+1 members under the embedded PSL, ccTLD aliases that are genuine
// variants of an in-set base, rationales on every associated and service
// member).
//
// A (seed, scale) pair must always produce the identical list — the
// property TestGenerateDeterministicPerSeed and CI's
// amplifier-determinism step check.
package amplify

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"

	"rwskit/internal/core"
	"rwskit/internal/dataset"
	"rwskit/internal/domain"
	"rwskit/internal/forcepoint"
	"rwskit/internal/psl"
	"rwskit/internal/sitegen"
	"rwskit/internal/tranco"
)

// Config configures Generate.
type Config struct {
	// Sets is the number of sets to generate. Required, >= 1.
	Sets int
	// Seed drives every random choice; the same (Sets, Seed, Profile)
	// reproduces the same list bit-for-bit.
	Seed int64
	// Profile holds the empirical fan-out distributions to sample from.
	// Nil selects DefaultProfile (derived from the embedded snapshot).
	Profile *Profile
}

// Profile captures the empirical shape of a real list: the per-set
// member-count histograms fan-out is sampled from, the same-SLD fraction
// among associated members, and the primary category mix. Sampling from
// the raw histograms (rather than fitted parameters) keeps every moment
// of the real distributions, including the heavy tail of large sets.
type Profile struct {
	// AssociatedCounts, ServiceCounts, and CCTLDCounts hold one entry per
	// real set: that set's member count in the subset. Generation draws a
	// set's fan-out by sampling one entry uniformly.
	AssociatedCounts []int
	ServiceCounts    []int
	CCTLDCounts      []int
	// SameSLDFrac is the fraction of associated members that share their
	// primary's second-level domain exactly (the paper reports ~9.3%).
	SameSLDFrac float64
	// Categories is the primary category mix, one entry per real set.
	Categories []forcepoint.Category
}

// Stats summarises the profile's expected aggregates, for tolerance
// checks against an amplified list's composition.
type Stats struct {
	FracSetsWithAssociated float64
	FracSetsWithService    float64
	FracSetsWithCCTLD      float64
	MeanAssociatedPerSet   float64
}

// Stats returns the aggregates an amplified list converges to as the set
// count grows.
func (p *Profile) Stats() Stats {
	var s Stats
	n := len(p.AssociatedCounts)
	if n == 0 {
		return s
	}
	var assoc int
	for _, c := range p.AssociatedCounts {
		if c > 0 {
			s.FracSetsWithAssociated++
		}
		assoc += c
	}
	for _, c := range p.ServiceCounts {
		if c > 0 {
			s.FracSetsWithService++
		}
	}
	for _, c := range p.CCTLDCounts {
		if c > 0 {
			s.FracSetsWithCCTLD++
		}
	}
	s.FracSetsWithAssociated /= float64(n)
	s.FracSetsWithService /= float64(n)
	s.FracSetsWithCCTLD /= float64(n)
	s.MeanAssociatedPerSet = float64(assoc) / float64(n)
	return s
}

// ProfileOf derives a Profile from any list: per-set member-count
// histograms and the same-SLD fraction (computed with the embedded PSL).
// Categories default to the synthetic top-site mix; DefaultProfile
// substitutes the embedded snapshot's real primary categories.
func ProfileOf(list *core.List) *Profile {
	p := &Profile{Categories: dataset.TopSiteCategories()}
	psl := psl.Default()
	var sameSLD, assocTotal int
	for _, s := range list.Sets() {
		p.AssociatedCounts = append(p.AssociatedCounts, len(s.Associated))
		p.ServiceCounts = append(p.ServiceCounts, len(s.Service))
		cc := 0
		for _, aliases := range s.CCTLDs {
			cc += len(aliases)
		}
		p.CCTLDCounts = append(p.CCTLDCounts, cc)
		primarySLD, err := domain.SLD(psl, s.Primary)
		if err != nil {
			continue
		}
		for _, a := range s.Associated {
			assocTotal++
			if sld, err := domain.SLD(psl, a); err == nil && sld == primarySLD {
				sameSLD++
			}
		}
	}
	if assocTotal > 0 {
		p.SameSLDFrac = float64(sameSLD) / float64(assocTotal)
	}
	return p
}

var (
	defaultProfileOnce sync.Once
	defaultProfile     *Profile
	defaultProfileErr  error
)

// DefaultProfile returns the profile of the embedded 26 March 2024
// snapshot, with the real per-set primary categories. Computed once and
// shared.
func DefaultProfile() (*Profile, error) {
	defaultProfileOnce.Do(func() {
		list, err := dataset.List()
		if err != nil {
			defaultProfileErr = err
			return
		}
		p := ProfileOf(list)
		p.Categories = nil
		for _, seed := range dataset.Sets() {
			p.Categories = append(p.Categories, seed.Primary.Category)
		}
		defaultProfile = p
	})
	return defaultProfile, defaultProfileErr
}

// The TLD pools. Primary and fragment-variant associated domains draw
// from the generic pool; same-SLD associated variants draw from altTLDs
// and ccTLD aliases from ccTLDs — the three pools are pairwise disjoint,
// so every domain a set derives from its primary SLD is unique within
// the set, and the set index embedded in each SLD makes domains unique
// across sets. Every TLD here is covered by the embedded PSL subset.
var (
	genericTLDs = []string{"com", "com", "com", "org", "net", "io", "co"}
	altTLDs     = []string{"xyz", "site", "online", "app", "dev"}
	ccTLDPool   = []string{"de", "fr", "es", "it", "nl", "be", "at", "ch", "se"}
)

// serviceSuffixes name service-subset utility domains ("<sld>-cdn.com"),
// mirroring the real list's infrastructure domains.
var serviceSuffixes = []string{"cdn", "static", "sso", "assets", "login", "api"}

// Generate builds a synthetic list of cfg.Sets sets. The result is a
// valid core.List (disjoint sets, canonical hosts) whose every set
// passes the structural submission checks; generation is deterministic
// for a given Config.
func Generate(cfg Config) (*core.List, error) {
	if cfg.Sets < 1 {
		return nil, fmt.Errorf("amplify: Sets must be >= 1, got %d", cfg.Sets)
	}
	prof := cfg.Profile
	if prof == nil {
		var err error
		prof, err = DefaultProfile()
		if err != nil {
			return nil, err
		}
	}
	if len(prof.AssociatedCounts) == 0 || len(prof.Categories) == 0 {
		return nil, fmt.Errorf("amplify: profile has no sets to sample from")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sets := make([]*core.Set, cfg.Sets)
	for i := range sets {
		sets[i] = generateSet(rng, prof, i)
	}
	return core.NewList(sets)
}

// generateSet builds set number idx. Every SLD embeds idx, so sets are
// disjoint by construction; within a set the three TLD pools and the
// per-member discriminators keep members distinct.
func generateSet(rng *rand.Rand, prof *Profile, idx int) *Set {
	cat := prof.Categories[rng.Intn(len(prof.Categories))]
	frags := sitegen.FragmentPairs(cat)
	f := frags[rng.Intn(len(frags))]
	tag := strconv.Itoa(idx)
	sld := f[0] + f[1] + tag
	primary := sld + "." + genericTLDs[rng.Intn(len(genericTLDs))]

	s := &Set{
		Contact:         "admin@" + primary,
		Primary:         primary,
		RationaleBySite: make(map[string]string),
	}

	// Fan-out is drawn jointly: one real set donates its whole
	// (associated, service, ccTLD) count triple. Sampling the triple —
	// rather than each histogram independently — preserves the
	// correlations between subsets and inherits the real invariant that
	// every set has at least one non-primary member.
	donor := rng.Intn(len(prof.AssociatedCounts))
	na, ns, ncc := prof.AssociatedCounts[donor], 0, 0
	if donor < len(prof.ServiceCounts) {
		ns = prof.ServiceCounts[donor]
	}
	if donor < len(prof.CCTLDCounts) {
		ncc = prof.CCTLDCounts[donor]
	}

	// Associated members: mostly fragment-variant names, with the
	// profile's same-SLD fraction reusing the primary SLD under an
	// alternate TLD (poalim.site / poalim.xyz style).
	altLeft := append([]string(nil), altTLDs...)
	for j := 0; j < na; j++ {
		var dom string
		if rng.Float64() < prof.SameSLDFrac && len(altLeft) > 0 {
			k := rng.Intn(len(altLeft))
			dom = sld + "." + altLeft[k]
			altLeft = append(altLeft[:k], altLeft[k+1:]...)
		} else {
			g := frags[rng.Intn(len(frags))]
			dom = g[0] + g[1] + tag + "a" + strconv.Itoa(j) + "." + genericTLDs[rng.Intn(len(genericTLDs))]
		}
		s.Associated = append(s.Associated, dom)
		s.RationaleBySite[dom] = fmt.Sprintf("Clearly presented affiliation with %s (common branding).", primary)
	}

	// Service members: utility domains derived from the primary SLD.
	for k := 0; k < ns; k++ {
		sfx := serviceSuffixes[k%len(serviceSuffixes)]
		if k >= len(serviceSuffixes) {
			sfx += strconv.Itoa(k)
		}
		dom := sld + "-" + sfx + ".com"
		s.Service = append(s.Service, dom)
		s.RationaleBySite[dom] = fmt.Sprintf("Supports the functionality of %s set members.", primary)
	}

	// ccTLD aliases of the primary: same SLD under a country-code TLD,
	// which is exactly what domain.IsCCTLDVariant requires.
	if ncc > len(ccTLDPool) {
		ncc = len(ccTLDPool)
	}
	if ncc > 0 {
		ccLeft := append([]string(nil), ccTLDPool...)
		aliases := make([]string, 0, ncc)
		for k := 0; k < ncc; k++ {
			c := rng.Intn(len(ccLeft))
			aliases = append(aliases, sld+"."+ccLeft[c])
			ccLeft = append(ccLeft[:c], ccLeft[c+1:]...)
		}
		s.CCTLDs = map[string][]string{primary: aliases}
	}
	return s
}

// Set aliases core.Set for readability inside this package.
type Set = core.Set

// Ranking builds a deterministic Tranco-style ranking over the list's
// set primaries, seeded independently of generation — the rank substrate
// scale-tier load generation and future popularity-weighted sampling
// draw from.
func Ranking(list *core.List, seed int64) (*tranco.List, error) {
	primaries := make([]string, 0, list.NumSets())
	for _, s := range list.Sets() {
		primaries = append(primaries, s.Primary)
	}
	return tranco.Generate(rand.New(rand.NewSource(seed)), primaries)
}
