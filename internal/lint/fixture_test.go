package lint

import (
	"path/filepath"
	"testing"
)

// checkFixture runs one analyzer over one testdata/src package and
// fails on any divergence from the // want expectations.
func checkFixture(t *testing.T, dir string, az *Analyzer) {
	t.Helper()
	fx, err := CheckFixtureDirs(".", []string{filepath.Join("testdata", "src", dir)}, az)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if fx.Failed() {
		t.Fatalf("fixture %s diverged:\n%s", dir, fx.Describe())
	}
}

// TestFixtureHarness proves the harness itself fails when expectations
// and diagnostics disagree: running the WRONG analyzer over a fixture
// must leave every want unmatched.
func TestFixtureHarness(t *testing.T) {
	fx, err := CheckFixtureDirs(".", []string{filepath.Join("testdata", "src", "lockguard")}, GoroLeak)
	if err != nil {
		t.Fatal(err)
	}
	if len(fx.Missing) == 0 {
		t.Fatal("running goroleak over the lockguard fixture matched its wants; the harness is not checking anything")
	}
}
