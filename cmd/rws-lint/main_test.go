package main

import (
	"bytes"
	"strings"
	"testing"
)

const fixtures = "../../internal/lint/testdata/src/"

// TestKnownBadExitsNonzero is the driver-level gate proof: rws-lint on
// a package with real violations must exit 1 and name the analyzers —
// including the interprocedural ones.
func TestKnownBadExitsNonzero(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{fixtures + "knownbad"}, &out, &errw)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	for _, az := range []string{"lockguard", "hotpath", "lockorder", "goroleak", "ctxflow"} {
		if !strings.Contains(out.String(), az) {
			t.Errorf("output missing a %s diagnostic:\n%s", az, out.String())
		}
	}
}

// TestAllocGateFlag runs the escape-analysis gate: knownbad's hotpath
// Format heap-allocates (fmt.Sprintf boxes its argument), clean's
// Shard does not.
func TestAllocGateFlag(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"-allocgate", fixtures + "knownbad"}, &out, &errw)
	if code != 1 {
		t.Fatalf("-allocgate knownbad exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "allocgate") || !strings.Contains(out.String(), "Format") {
		t.Errorf("-allocgate output missing the Format finding:\n%s", out.String())
	}
	out.Reset()
	errw.Reset()
	if code := run([]string{"-allocgate", fixtures + "clean"}, &out, &errw); code != 0 {
		t.Fatalf("-allocgate clean exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
}

func TestCleanExitsZero(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{fixtures + "clean"}, &out, &errw); code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", out.String())
	}
}

func TestListFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("-list exit code = %d, want 0", code)
	}
	for _, az := range []string{"lockguard", "hotpath", "lockorder", "goroleak", "ctxflow", "allocgate"} {
		if !strings.Contains(out.String(), az) {
			t.Errorf("-list missing %s:\n%s", az, out.String())
		}
	}
}

func TestBadPatternExitsTwo(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"no/such/dir"}, &out, &errw); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}
