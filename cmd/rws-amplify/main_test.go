package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rwskit/internal/core"
)

func runCapture(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

func TestHashModeDeterministic(t *testing.T) {
	a := runCapture(t, "-sets", "50", "-seed", "9", "-hash")
	b := runCapture(t, "-sets", "50", "-seed", "9", "-hash")
	if a != b {
		t.Errorf("same seed produced different hash lines:\n%s%s", a, b)
	}
	fields := strings.Fields(a)
	if len(fields) != 3 || fields[0] != "50" || fields[1] != "9" || len(fields[2]) != 64 {
		t.Errorf("hash line = %q, want \"50 9 <64-hex>\"", a)
	}
	c := runCapture(t, "-sets", "50", "-seed", "10", "-hash")
	if strings.Fields(c)[2] == fields[2] {
		t.Errorf("different seeds produced the same hash %s", fields[2])
	}
}

func TestEmitReparses(t *testing.T) {
	out := filepath.Join(t.TempDir(), "list.json")
	runCapture(t, "-sets", "40", "-seed", "3", "-o", out)
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	list, err := core.ParseJSON(raw)
	if err != nil {
		t.Fatalf("re-parsing emitted JSON: %v", err)
	}
	if list.NumSets() != 40 {
		t.Errorf("emitted list has %d sets, want 40", list.NumSets())
	}
	hashLine := runCapture(t, "-sets", "40", "-seed", "3", "-hash")
	if want := strings.Fields(hashLine)[2]; list.Hash() != want {
		t.Errorf("emitted list hash %.12s != -hash mode %.12s", list.Hash(), want)
	}
}

func TestValidateMode(t *testing.T) {
	runCapture(t, "-sets", "60", "-seed", "2", "-validate", "-hash")
}

func TestBuildMode(t *testing.T) {
	out := runCapture(t, "-sets", "30", "-seed", "1", "-build")
	for _, want := range []string{"build_time", "heap_delta_bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("build output missing %q:\n%s", want, out)
		}
	}
}

func TestFlagErrors(t *testing.T) {
	if _, err := parseFlags([]string{"-seed", "1"}); err == nil {
		t.Error("missing -sets should error")
	}
	if _, err := parseFlags([]string{"-sets", "5", "stray"}); err == nil {
		t.Error("stray positional arg should error")
	}
	for _, args := range [][]string{
		{"-hash", "-build"},
		{"-hash", "-stats"},
		{"-stats", "-build"},
		{"-o", "list.json", "-hash"},
		{"-o", "list.json", "-stats"},
		{"-o", "list.json", "-build", "-validate"},
	} {
		if _, err := parseFlags(append([]string{"-sets", "5"}, args...)); err == nil {
			t.Errorf("%v should error: the modes exclude each other", args)
		}
	}
	for _, mode := range []string{"-hash", "-stats", "-build"} {
		if _, err := parseFlags([]string{"-sets", "5", mode, "-validate"}); err != nil {
			t.Errorf("%s -validate: %v", mode, err)
		}
	}
}
