package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"rwskit/internal/core"
)

// This file is the churn query surface: /v1/churn walks the retained
// version chain between two versions, digests it with core.Churn (per-
// step and cumulative add/remove/mutate counts, lifecycles, volatility),
// and answers from the memoized diff plane — every adjacent diff in the
// walk is a Store.Diff call, so a repeated churn query costs cache hits,
// not DiffLists recomputation.

// defaultChurnTop and maxChurnTop bound the volatile-set ranking in a
// churn response.
const (
	defaultChurnTop = 10
	maxChurnTop     = 100
)

// ChurnEndpoint identifies one end of a churn step: the version hash
// plus its as-of instant.
type ChurnEndpoint struct {
	Hash string    `json:"hash"`
	AsOf time.Time `json:"as_of"`
}

// ChurnRename is one rename pairing in a churn step.
type ChurnRename struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// ChurnStepResponse is one transition in a /v1/churn response.
type ChurnStepResponse struct {
	From ChurnEndpoint `json:"from"`
	To   ChurnEndpoint `json:"to"`
	// Label is the step's month ("2006-01" of the To as-of time), the
	// natural axis for the paper's monthly study window.
	Label          string        `json:"label"`
	SetsAdded      int           `json:"sets_added"`
	SetsRemoved    int           `json:"sets_removed"`
	SetsMutated    int           `json:"sets_mutated"`
	MembersAdded   int           `json:"members_added"`
	MembersRemoved int           `json:"members_removed"`
	Renames        []ChurnRename `json:"renames,omitempty"`
	Summary        string        `json:"summary"`
}

// ChurnTotals is the cumulative whole-window view of a churn response.
type ChurnTotals struct {
	SetsAdded      int    `json:"sets_added"`
	SetsRemoved    int    `json:"sets_removed"`
	MembersAdded   int    `json:"members_added"`
	MembersRemoved int    `json:"members_removed"`
	Summary        string `json:"summary"`
}

// ChurnLifecycle is one set's window-level lifecycle in a churn
// response, ranked by volatility.
type ChurnLifecycle struct {
	Primary     string `json:"primary"`
	Born        bool   `json:"born"`
	Died        bool   `json:"died"`
	RenamedFrom string `json:"renamed_from,omitempty"`
	RenamedTo   string `json:"renamed_to,omitempty"`
	Mutations   int    `json:"mutations"`
	MemberChurn int    `json:"member_churn"`
	Volatility  int    `json:"volatility"`
}

// ChurnResponse answers /v1/churn.
type ChurnResponse struct {
	From        VersionResponse `json:"from"`
	To          VersionResponse `json:"to"`
	Granularity string          `json:"granularity"`
	// Versions is the number of retained versions the walk covered.
	Versions int `json:"versions"`
	// Steps holds one entry per transition at the requested granularity
	// (always present, possibly empty when from == to).
	Steps []ChurnStepResponse `json:"steps"`
	// Cumulative is the composed whole-window diff (core.ComposeDiffs
	// folded over the steps).
	Cumulative     ChurnTotals `json:"cumulative"`
	SetsChurned    int         `json:"sets_churned"`
	MembersChurned int         `json:"members_churned"`
	SetsBorn       int         `json:"sets_born"`
	SetsDied       int         `json:"sets_died"`
	SetsRenamed    int         `json:"sets_renamed"`
	// TopVolatile ranks the most restless sets of the window (top=
	// bounds it, default 10).
	TopVolatile []ChurnLifecycle `json:"top_volatile"`
}

// churnGranularity validates the granularity parameter: "step" (every
// retained transition; the default), "month" (transitions grouped by
// as-of month, intra-month revisions collapsed onto the month's last),
// or "total" (one step spanning the whole window).
func churnGranularity(s string) (string, bool) {
	switch s {
	case "", "step":
		return "step", true
	case "month", "total":
		return s, true
	default:
		return "", false
	}
}

// churnChain reduces the full version chain to the representatives the
// requested granularity keeps. The from endpoint always stays, so the
// composed window is never narrowed: "month" keeps the last revision of
// each as-of month (a mid-month from contributes a partial first step),
// "total" keeps only the two endpoints.
func churnChain(chain []ChainEntry, granularity string) []ChainEntry {
	switch granularity {
	case "total":
		if len(chain) <= 1 {
			return chain
		}
		return []ChainEntry{chain[0], chain[len(chain)-1]}
	case "month":
		reps := []ChainEntry{chain[0]}
		for _, ce := range chain[1:] {
			last := reps[len(reps)-1]
			sameMonth := ce.Version.AsOf.UTC().Format("2006-01") == last.Version.AsOf.UTC().Format("2006-01")
			if sameMonth && len(reps) > 1 {
				reps[len(reps)-1] = ce
			} else {
				reps = append(reps, ce)
			}
		}
		return reps
	default:
		return chain
	}
}

func (s *Server) handleChurn(w http.ResponseWriter, r *http.Request) {
	var q query
	if !parse(w, r, paramsChurn, &q) {
		return
	}
	granularity, ok := churnGranularity(q.vals[keyGranularity])
	if !ok {
		badRequest(w, "granularity %q: want step, month, or total", q.vals[keyGranularity])
		return
	}
	top := defaultChurnTop
	if raw := q.vals[keyTop]; raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 || n > maxChurnTop {
			badRequest(w, "top %q: want an integer in [0, %d]", raw, maxChurnTop)
			return
		}
		top = n
	}

	// from defaults to the oldest retained version, to to the current
	// one, so a bare /v1/churn reports the whole retained window. The
	// defaults stay zero-hash and are resolved inside Chain, under the
	// same lock as the walk — a parameterless query must not 404 because
	// an endpoint the server itself picked was evicted in between.
	fromSpec, toSpec := q.vals[keyFrom], q.vals[keyTo]
	var fromVer, toVer core.Version
	var err error
	if fromSpec != "" {
		if _, fromVer, err = s.store.Resolve(fromSpec); err != nil {
			writeResolveError(w, fmt.Errorf("from: %w", err))
			return
		}
	}
	if toSpec != "" {
		if _, toVer, err = s.store.Resolve(toSpec); err != nil {
			writeResolveError(w, fmt.Errorf("to: %w", err))
			return
		}
	}

	chain, err := s.store.Chain(fromVer, toVer)
	if err != nil {
		writeResolveError(w, err)
		return
	}
	chain = churnChain(chain, granularity)
	for _, ce := range chain {
		ce.Snap.requests.Add(1)
	}

	lists := make([]*core.List, len(chain))
	adjacent := make([]core.Diff, 0, len(chain)-1)
	for i, ce := range chain {
		lists[i] = ce.Snap.List()
		if i > 0 {
			adjacent = append(adjacent, s.store.Diff(chain[i-1].Snap, ce.Snap))
		}
	}
	rep, err := core.Churn(lists, adjacent)
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, "%v", err)
		return
	}

	fromSnap := chain[0].Snap
	resp := ChurnResponse{
		From:           versionResponse(VersionInfo{Version: chain[0].Version, Sets: fromSnap.NumSets(), Sites: fromSnap.NumSites()}),
		To:             versionResponse(VersionInfo{Version: chain[len(chain)-1].Version, Sets: chain[len(chain)-1].Snap.NumSets(), Sites: chain[len(chain)-1].Snap.NumSites()}),
		Granularity:    granularity,
		Versions:       len(chain),
		Steps:          make([]ChurnStepResponse, 0, len(rep.Steps)),
		SetsChurned:    rep.SetsChurned,
		MembersChurned: rep.MembersChurned,
		SetsBorn:       rep.SetsBorn,
		SetsDied:       rep.SetsDied,
		SetsRenamed:    rep.SetsRenamed,
		Cumulative: ChurnTotals{
			SetsAdded:      len(rep.Cumulative.AddedSets),
			SetsRemoved:    len(rep.Cumulative.RemovedSets),
			MembersAdded:   len(rep.Cumulative.AddedMembers),
			MembersRemoved: len(rep.Cumulative.RemovedMembers),
			Summary:        rep.Cumulative.Summary(),
		},
		TopVolatile: make([]ChurnLifecycle, 0, top),
	}
	for i, step := range rep.Steps {
		sr := ChurnStepResponse{
			From:           ChurnEndpoint{Hash: chain[i].Version.Hash, AsOf: chain[i].Version.AsOf},
			To:             ChurnEndpoint{Hash: chain[i+1].Version.Hash, AsOf: chain[i+1].Version.AsOf},
			Label:          chain[i+1].Version.AsOf.UTC().Format("2006-01"),
			SetsAdded:      step.SetsAdded,
			SetsRemoved:    step.SetsRemoved,
			SetsMutated:    step.SetsMutated,
			MembersAdded:   step.MembersAdded,
			MembersRemoved: step.MembersRemoved,
			Summary:        step.Diff.Summary(),
		}
		for _, rn := range step.Renames {
			sr.Renames = append(sr.Renames, ChurnRename{From: rn.From, To: rn.To})
		}
		resp.Steps = append(resp.Steps, sr)
	}
	for _, lc := range rep.TopVolatile(top) {
		resp.TopVolatile = append(resp.TopVolatile, ChurnLifecycle{
			Primary:     lc.Primary,
			Born:        lc.Born,
			Died:        lc.Died,
			RenamedFrom: lc.RenamedFrom,
			RenamedTo:   lc.RenamedTo,
			Mutations:   lc.Mutations,
			MemberChurn: lc.MemberChurn,
			Volatility:  lc.Volatility,
		})
	}
	writeJSON(w, http.StatusOK, resp, q.pretty())
}
