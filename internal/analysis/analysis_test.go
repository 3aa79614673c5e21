package analysis

import (
	"context"
	"strings"
	"testing"
)

func TestRunAllProducesEveryArtifact(t *testing.T) {
	s := NewSession(Config{Seed: 1})
	arts, err := RunAll(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 12 {
		t.Fatalf("artifacts = %d, want 12", len(arts))
	}
	ids := map[string]bool{}
	for _, a := range arts {
		if a.Rendered == "" {
			t.Errorf("%s: empty rendering", a.ID)
		}
		if len(a.Metrics) == 0 {
			t.Errorf("%s: no metrics", a.ID)
		}
		if ids[a.ID] {
			t.Errorf("duplicate artifact id %s", a.ID)
		}
		ids[a.ID] = true
	}
	for _, want := range []string{"table1", "table2", "table3",
		"figure1", "figure2", "figure3", "figure4", "figure5",
		"figure6", "figure7", "figure8", "figure9"} {
		if !ids[want] {
			t.Errorf("missing artifact %s", want)
		}
	}
}

// TestPaperVsMeasuredAnchors is the integration-level check of the
// reproduction: each paper headline value must land in its DESIGN.md band.
func TestPaperVsMeasuredAnchors(t *testing.T) {
	s := NewSession(Config{Seed: 1})
	arts, err := RunAll(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]map[string]float64{}
	for _, a := range arts {
		m[a.ID] = a.Metrics
	}
	checks := []struct {
		id, key string
		lo, hi  float64
		paper   float64
	}{
		{"table1", "privacy_harming_rate", 0.30, 0.44, 0.368},
		{"table1", "correct_rejection_rate", 0.90, 0.975, 0.937},
		{"table1", "participants_with_error_frac", 0.55, 0.95, 0.733},
		{"figure2", "ks_significant", 1, 1, 1},
		{"figure3", "median_associated_distance", 5, 9, 7},
		{"figure3", "identical_sld_frac", 0.08, 0.11, 0.093},
		{"figure3", "service_sites", 14, 14, 14},
		{"figure3", "associated_sites", 108, 108, 108},
		{"figure4", "median_joint", 0.0, 0.15, 0.04},
		{"figure5", "total_prs", 114, 114, 114},
		{"figure5", "closed_frac", 0.50, 0.68, 0.588},
		{"figure5", "prs_per_primary", 1.8, 2.0, 1.9},
		{"figure6", "median_approved_days", 3, 8, 5},
		{"figure6", "frac_closed_same_day", 0.45, 0.65, 0.543},
		{"figure6", "approved_with_failed_checks", 1, 1, 1},
		{"figure7", "final_sets", 41, 41, 41},
		{"figure7", "frac_with_associated", 0.92, 0.94, 0.927},
		{"figure7", "mean_associated_per_set", 2.5, 2.7, 2.6},
		{"table3", "wellknown_fetch_share", 0.40, 0.80, 0.61},
		{"figure8", "news_is_largest", 1, 1, 1},
	}
	for _, c := range checks {
		got, ok := m[c.id][c.key]
		if !ok {
			t.Errorf("%s: metric %q missing", c.id, c.key)
			continue
		}
		if got < c.lo || got > c.hi {
			t.Errorf("%s %s = %v, want [%v, %v] (paper: %v)", c.id, c.key, got, c.lo, c.hi, c.paper)
		}
	}
}

func TestRenderedArtifactsContainPaperStructure(t *testing.T) {
	s := NewSession(Config{Seed: 1})
	arts, err := RunAll(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]*Artifact{}
	for _, a := range arts {
		byID[a.ID] = a
	}
	if r := byID["table1"].Rendered; !strings.Contains(r, "RWS (same set)") {
		t.Errorf("table1 missing group rows:\n%s", r)
	}
	if r := byID["table3"].Rendered; !strings.Contains(r, "Unable to fetch .well-known JSON file") {
		t.Errorf("table3 missing dominant error:\n%s", r)
	}
	if r := byID["figure1"].Rendered; !strings.Contains(r, "expected") {
		t.Errorf("figure1 missing matrix labels:\n%s", r)
	}
	if r := byID["figure3"].Rendered; !strings.Contains(r, "Associated sites (108)") {
		t.Errorf("figure3 missing legend:\n%s", r)
	}
	if r := byID["figure7"].Rendered; !strings.Contains(r, "2024-03") {
		t.Errorf("figure7 missing final month:\n%s", r)
	}
}

// TestSessionCaching: the survey and governance pipelines run once per
// session even when multiple experiments consume them.
func TestSessionCaching(t *testing.T) {
	s := NewSession(Config{Seed: 5})
	r1, err := s.Survey()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Survey()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("Survey not cached")
	}
	g1, err := s.GitHub()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := s.GitHub()
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("GitHub log not cached")
	}
}

func BenchmarkRunAll(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSession(Config{Seed: int64(i)})
		if _, err := RunAll(context.Background(), s); err != nil {
			b.Fatal(err)
		}
	}
}

// TestArtifactsDeterministic: the same seed must reproduce every rendered
// artifact byte-for-byte — the reproducibility contract of EXPERIMENTS.md.
func TestArtifactsDeterministic(t *testing.T) {
	run := func() map[string]string {
		s := NewSession(Config{Seed: 99})
		arts, err := RunAll(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, a := range arts {
			out[a.ID] = a.Rendered
		}
		return out
	}
	a, b := run(), run()
	for id, r := range a {
		if b[id] != r {
			t.Errorf("%s rendered differently across identical-seed runs", id)
		}
	}
}

// TestExperimentsListStable: All lists the 12 experiments in paper
// order, tables first.
func TestExperimentsListStable(t *testing.T) {
	es := All()
	if len(es) != 12 {
		t.Fatalf("experiments = %d, want 12", len(es))
	}
	if es[0].ID != "table1" || es[11].ID != "figure9" {
		t.Errorf("order: first=%s last=%s", es[0].ID, es[11].ID)
	}
}
