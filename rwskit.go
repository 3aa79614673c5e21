// Package rwskit is a Go implementation and measurement toolkit for
// Google's Related Website Sets (RWS) proposal, built as a full
// reproduction of "A First Look at Related Website Sets" (McQuistin,
// Snyder, Haddadi, Tyson — IMC 2024).
//
// The package is the public facade over the internal implementation. It
// provides:
//
//   - the RWS list model in the upstream related_website_sets.JSON schema,
//     with canonicalisation, relatedness queries, and snapshot diffing;
//   - a Public Suffix List engine and eTLD+1 (site) semantics;
//   - the full set-submission validator (the GitHub bot's checks,
//     including live ".well-known/related-website-set.json" verification);
//   - a browser storage-partitioning simulator with per-vendor policies
//     (strict, prompt-based, Chrome+RWS, legacy unpartitioned);
//   - the paper's measurement pipelines: the §3 relatedness user study,
//     SLD edit-distance and HTML-similarity analyses, list composition
//     and category timelines, and the GitHub governance analysis;
//   - a parallel experiment runner that regenerates every table and figure
//     in the paper's evaluation (see EXPERIMENTS.md), sharing one build of
//     each expensive intermediate across experiments; and
//   - an HTTP query service (rws-serve) answering relatedness, set, and
//     storage-partitioning queries against a hot-swappable list snapshot.
//
// # Quick start
//
//	list, err := rwskit.Snapshot() // embedded 26 Mar 2024 reconstruction
//	if err != nil { ... }
//	related := list.SameSet("bild.de", "autobild.de") // true
//
//	arts, err := rwskit.RunExperiments(context.Background(), 1)
//	for _, a := range arts {
//		fmt.Println(a.Rendered)
//	}
//
// Determinism: every stochastic component takes an explicit seed; the
// same seed reproduces every artifact bit-for-bit.
package rwskit

import (
	"context"
	"sort"
	"strings"

	"rwskit/internal/analysis"
	"rwskit/internal/browser"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
	"rwskit/internal/disconnect"
	"rwskit/internal/domain"
	"rwskit/internal/psl"
	"rwskit/internal/serve"
	"rwskit/internal/validate"
	"rwskit/internal/wellknown"
)

// List is a Related Website Sets list: a collection of disjoint sets with
// an index for relatedness queries.
type List = core.List

// Set is one Related Website Set.
type Set = core.Set

// Role identifies how a site participates in a set.
type Role = core.Role

// Roles, mirroring the upstream schema's subsets.
const (
	RolePrimary    = core.RolePrimary
	RoleAssociated = core.RoleAssociated
	RoleService    = core.RoleService
	RoleCCTLD      = core.RoleCCTLD
)

// ParseList parses a list in the upstream related_website_sets.JSON
// schema.
func ParseList(data []byte) (*List, error) { return core.ParseJSON(data) }

// ParseSet parses a single set object (the payload of an RWS pull
// request).
func ParseSet(data []byte) (*Set, error) { return core.ParseSetJSON(data) }

// Snapshot returns the embedded reconstruction of the RWS list as of 26
// March 2024 — the snapshot analysed throughout the paper.
func Snapshot() (*List, error) { return dataset.List() }

// Diff describes how a list changed between two snapshots.
type Diff = core.Diff

// DiffLists compares two list snapshots by set primary.
func DiffLists(old, new *List) Diff { return core.DiffLists(old, new) }

// Version identifies one list revision held by a version store: content
// hash plus provenance (source, observed-at, as-of time).
type Version = core.Version

// ETLDPlusOne returns the registrable domain (eTLD+1) of host under the
// default suffix list — the Web's site-as-privacy-boundary unit.
func ETLDPlusOne(host string) (string, error) {
	norm, err := domain.Normalize(host)
	if err != nil {
		return "", err
	}
	return psl.Default().ETLDPlusOne(norm)
}

// SLD returns the second-level domain label of host ("poalim" for
// "poalim.xyz"), the unit compared in the paper's Figure 3.
func SLD(host string) (string, error) {
	return domain.SLD(psl.Default(), host)
}

// ValidationReport is the outcome of validating a proposed set.
type ValidationReport = validate.Report

// Validator runs the RWS submission checks.
type Validator = validate.Validator

// NewValidator returns a validator using the default suffix list. fetch
// may be nil for structural-only validation; existing may be nil to skip
// the disjointness check. See rwskit/internal/wellknown.HTTPFetcher for
// wiring a live fetcher.
func NewValidator(fetch wellknown.Fetcher, existing *List) *Validator {
	return validate.New(psl.Default(), fetch, existing)
}

// ValidateSetOffline runs the structural (non-network) submission checks
// against a proposed set.
func ValidateSetOffline(ctx context.Context, s *Set) ValidationReport {
	return validate.New(psl.Default(), nil, nil).ValidateSet(ctx, s)
}

// Browser is a simulated browsing profile with partitioned storage.
type Browser = browser.Browser

// NewStrictBrowser returns a profile that always partitions third-party
// storage and never grants access (Brave-like).
func NewStrictBrowser() *Browser { return browser.New(browser.StrictPolicy{}) }

// NewPromptBrowser returns a profile that partitions by default and defers
// storage-access requests to the prompt function (Firefox/Safari-like).
func NewPromptBrowser(prompt browser.PromptFunc) *Browser {
	return browser.New(browser.PromptPolicy{Prompt: prompt})
}

// NewRWSBrowser returns a Chrome-like profile that auto-grants storage
// access between members of the same Related Website Set.
func NewRWSBrowser(list *List) *Browser {
	return browser.New(browser.RWSPolicy{List: list})
}

// NewLegacyBrowser returns a profile with no partitioning at all (the
// third-party-cookie world).
func NewLegacyBrowser() *Browser { return browser.New(browser.LegacyPolicy{}) }

// EntitiesList is a Disconnect-style entities list: domains grouped by
// owning organisation, the ownership-based analogue of the RWS list that
// §5 of the paper compares against.
type EntitiesList = disconnect.List

// OwnershipComparison quantifies the RWS "associated sites" relaxation
// against an ownership-based entities list.
type OwnershipComparison = disconnect.Comparison

// CompareOwnership measures how much of the RWS relatedness relation is
// backed by common ownership per the entities list — the paper's §5
// "crucial difference".
func CompareOwnership(entities *EntitiesList, rws *List) OwnershipComparison {
	return disconnect.CompareWithRWS(entities, rws)
}

// Server answers RWS queries over HTTP (sameset incl. batch pairs, set,
// partition incl. POST batch, stats, metrics, and the /v1/list
// replication export other Servers can follow) against a hot-swappable
// precomputed snapshot. See rwskit/internal/serve for the endpoint
// contract and cmd/rws-serve for the standalone binary.
type Server = serve.Server

// ServerStore is a bounded version store of precomputed snapshots: the
// current version serves the lock-free fast path, superseded versions
// stay queryable by hash or as-of time, and diffs between any two
// retained versions are exact DiffLists results.
type ServerStore = serve.Store

// NewServerStore returns an empty version store retaining up to capacity
// versions (capacity < 1 selects serve.DefaultRetain). Install at least
// one version with AddList before serving from it.
func NewServerStore(capacity int) *ServerStore { return serve.NewStore(capacity) }

// NewServerFromStore returns a Server answering queries from st, which
// must already hold a current version. Use it to preload history (e.g.
// the monthly study-window snapshots) before taking traffic.
func NewServerFromStore(st *ServerStore) *Server { return serve.NewFromStore(st) }

// Artifact is one regenerated table or figure.
type Artifact = analysis.Artifact

// RunExperiments regenerates every table and figure with the given seed.
func RunExperiments(ctx context.Context, seed int64) ([]*Artifact, error) {
	return analysis.RunAll(ctx, analysis.NewSession(analysis.Config{Seed: seed}))
}

// RunExperiment runs a single experiment by ID ("table1" ... "figure9").
func RunExperiment(ctx context.Context, seed int64, id string) (*Artifact, error) {
	s := analysis.NewSession(analysis.Config{Seed: seed})
	valid := make([]string, 0, len(analysis.All()))
	for _, e := range analysis.All() {
		if e.ID == id {
			return e.Run(ctx, s)
		}
		valid = append(valid, e.ID)
	}
	sort.Strings(valid)
	return nil, &UnknownExperimentError{ID: id, Valid: valid}
}

// UnknownExperimentError reports a RunExperiment call with an ID that does
// not match any experiment.
type UnknownExperimentError struct {
	ID string
	// Valid lists every known experiment ID, sorted, so the message is
	// self-diagnosing (`rws-analyze -only figure10` tells the caller what
	// it could have asked for).
	Valid []string
}

// Error implements error.
func (e *UnknownExperimentError) Error() string {
	if len(e.Valid) == 0 {
		return "rwskit: unknown experiment " + e.ID
	}
	return "rwskit: unknown experiment " + e.ID + " (valid: " + strings.Join(e.Valid, ", ") + ")"
}
