// Package analysis orchestrates the reproduction experiments: one
// experiment per table and figure in "A First Look at Related Website
// Sets" (IMC 2024), each producing a rendered text artifact plus the key
// measured values recorded in EXPERIMENTS.md.
//
// A Session owns the expensive shared intermediates (the survey run, the
// governance simulation, the crawl of the synthetic web) and caches them
// in per-intermediate lazy cells, so regenerating all twelve artifacts
// costs one run of each pipeline. Each cell builds under its own
// singleflight lock: concurrent experiments that need the same
// intermediate share one build, while experiments with disjoint needs
// build their inputs in parallel.
//
// Rendered artifacts must be byte-identical run to run — the property
// TestArtifactsDeterministic checks.
package analysis

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"

	"rwskit/internal/core"
	"rwskit/internal/crawler"
	"rwskit/internal/dataset"
	"rwskit/internal/forcepoint"
	"rwskit/internal/github"
	"rwskit/internal/history"
	"rwskit/internal/htmlsim"
	"rwskit/internal/psl"
	"rwskit/internal/survey"
)

// Config configures a reproduction session.
type Config struct {
	// Seed drives every stochastic component. The committed EXPERIMENTS.md
	// uses seed 1.
	Seed int64
}

// Intermediate identifies one of the expensive shared inputs a Session
// caches. Experiments declare which intermediates they need so RunAll can
// schedule independent pipelines concurrently.
type Intermediate int

// The shared intermediates, in rough order of build cost.
const (
	// NeedList is the embedded snapshot list (cheap).
	NeedList Intermediate = iota
	// NeedTimeline is the monthly snapshot timeline.
	NeedTimeline
	// NeedGitHub is the §4 governance simulation.
	NeedGitHub
	// NeedSurvey is the §3 user-study simulation.
	NeedSurvey
	// NeedSimilarities is the synthetic-web crawl plus HTML comparison
	// (the most expensive input: it runs a real HTTP server).
	NeedSimilarities
)

// String names the intermediate in logs and scheduling traces.
func (n Intermediate) String() string {
	switch n {
	case NeedList:
		return "list"
	case NeedTimeline:
		return "timeline"
	case NeedGitHub:
		return "github-log"
	case NeedSurvey:
		return "survey"
	case NeedSimilarities:
		return "sim-pairs"
	default:
		return fmt.Sprintf("intermediate(%d)", int(n))
	}
}

// cell is a lazily built, concurrency-safe value: the first caller builds
// under the cell's own lock while later callers block on the same build
// (singleflight), and every subsequent call returns the cached result.
// The build outcome — value or error — is cached for the Session's
// lifetime, so a failed pipeline is not silently retried.
type cell[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (c *cell[T]) get(build func() (T, error)) (T, error) {
	c.once.Do(func() { c.val, c.err = build() })
	return c.val, c.err
}

// Session lazily builds and caches the shared experiment inputs. Each
// intermediate lives in its own cell, so a Session is safe for concurrent
// use by many experiments and never serialises independent pipelines
// behind one mutex.
type Session struct {
	cfg Config

	list     cell[*core.List]
	survey   cell[*survey.Results]
	ghLog    cell[*github.Log]
	timeline cell[*history.Timeline]
	simPairs cell[[]MemberSimilarity]
}

// MemberSimilarity is one crawled primary↔member comparison for Figure 4.
type MemberSimilarity struct {
	Primary string
	Member  string
	Role    core.Role
	Scores  htmlsim.Scores
}

// NewSession returns a Session for the given config.
func NewSession(cfg Config) *Session { return &Session{cfg: cfg} }

// Build eagerly builds one intermediate (sharing the cell with any
// concurrent caller) and reports its error. RunAll uses it to warm the
// inputs an experiment declared before the experiment body runs.
func (s *Session) Build(ctx context.Context, n Intermediate) error {
	var err error
	switch n {
	case NeedList:
		_, err = s.List()
	case NeedSurvey:
		_, err = s.Survey()
	case NeedGitHub:
		_, err = s.GitHub()
	case NeedTimeline:
		_, err = s.Timeline()
	case NeedSimilarities:
		_, err = s.Similarities(ctx)
	default:
		err = fmt.Errorf("analysis: unknown intermediate %v", n)
	}
	return err
}

// List returns the embedded snapshot list.
func (s *Session) List() (*core.List, error) {
	return s.list.get(dataset.List)
}

// Survey runs (once) the §3 user-study simulation.
func (s *Session) Survey() (*survey.Results, error) {
	return s.survey.get(func() (*survey.Results, error) {
		list, err := s.List()
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(s.cfg.Seed))
		tops, topDB := dataset.TopSites(rng)
		combined := forcepoint.NewDB()
		snapDB := dataset.CategoryDB()
		for _, d := range snapDB.Domains() {
			combined.Set(d, snapDB.Lookup(d))
		}
		var topEntries []survey.TopSite
		for _, site := range tops {
			c := topDB.Lookup(site.Domain)
			combined.Set(site.Domain, c)
			topEntries = append(topEntries, survey.TopSite{Domain: site.Domain, Category: c})
		}
		pairs, err := survey.GeneratePairs(survey.PairConfig{
			List:       list,
			Eligible:   survey.EligibleSites(),
			TopSites:   topEntries,
			Categories: combined,
			RNG:        rng,
		})
		if err != nil {
			return nil, err
		}
		ev := survey.NewEvaluator(list, psl.Default(), combined)
		return survey.Run(survey.StudyConfig{
			Seed:      s.cfg.Seed,
			Pairs:     pairs,
			Evaluator: ev,
		})
	})
}

// GitHub runs (once) the §4 governance simulation.
func (s *Session) GitHub() (*github.Log, error) {
	return s.ghLog.get(func() (*github.Log, error) {
		return github.Simulate(github.SimConfig{Seed: s.cfg.Seed})
	})
}

// Timeline builds (once) the monthly snapshot timeline.
func (s *Session) Timeline() (*history.Timeline, error) {
	return s.timeline.get(history.Build)
}

// Similarities crawls (once) the synthetic web over real HTTP and computes
// the Figure 4 primary↔member HTML similarity scores for every service and
// associated member.
func (s *Session) Similarities(ctx context.Context) ([]MemberSimilarity, error) {
	return s.simPairs.get(func() ([]MemberSimilarity, error) {
		list, err := s.List()
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(s.cfg.Seed))
		web, err := dataset.BuildWeb(rng, nil)
		if err != nil {
			return nil, err
		}
		srv := httptest.NewServer(web)
		defer srv.Close()
		c, err := crawler.NewForServer(srv.URL, srv.Client(), 8)
		if err != nil {
			return nil, err
		}

		// One home-page fetch per member site, then compare each service and
		// associated member against its set primary.
		var reqs []crawler.Request
		for _, d := range web.Domains() {
			reqs = append(reqs, crawler.Request{Host: d, Path: "/"})
		}
		pages := c.CrawlAll(ctx, reqs)
		byHost := make(map[string]string, len(pages))
		for _, p := range pages {
			if p == nil {
				return nil, fmt.Errorf("analysis: crawl returned a nil page")
			}
			if !p.OK() {
				return nil, fmt.Errorf("analysis: crawl of %s failed: %v (status %d)", p.Host, p.Err, p.StatusCode)
			}
			byHost[p.Host] = p.Body
		}
		var out []MemberSimilarity
		for _, set := range list.Sets() {
			primaryHTML, ok := byHost[set.Primary]
			if !ok {
				return nil, fmt.Errorf("analysis: missing crawl of primary %s", set.Primary)
			}
			for _, m := range set.Members() {
				if m.Role != core.RoleAssociated && m.Role != core.RoleService {
					continue
				}
				memberHTML, ok := byHost[m.Site]
				if !ok {
					return nil, fmt.Errorf("analysis: missing crawl of member %s", m.Site)
				}
				out = append(out, MemberSimilarity{
					Primary: set.Primary,
					Member:  m.Site,
					Role:    m.Role,
					Scores:  htmlsim.Compare(primaryHTML, memberHTML),
				})
			}
		}
		return out, nil
	})
}
