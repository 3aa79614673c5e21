package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestParseEscapeDiags(t *testing.T) {
	const out = `# rwskit/internal/serve
internal/serve/snapshot.go:45:17: fmt.Errorf("policy %q", p) escapes to heap:
internal/serve/snapshot.go:45:17:   flow: ~r0 = &{storage for fmt.Errorf("policy %q", p)}:
internal/serve/store.go:12:6: parameter st does not escape
internal/serve/store.go:30:2: moved to heap: d
internal/serve/store.go:40:6: can inline (*Store).Current with cost 42 as: ...
internal/serve/store.go:60:6: cannot inline (*Store).Diff: function too complex: cost 123 exceeds budget 80
internal/serve/store.go:70:6: leaking param: from
not a diagnostic line
`
	facts := ParseEscapeDiags(out)
	var got []string
	for _, f := range facts {
		got = append(got, f.Kind+"@"+f.File+":"+itoa(f.Line))
	}
	want := []string{
		"escape@internal/serve/snapshot.go:45",
		"moved@internal/serve/store.go:30",
		"noinline@internal/serve/store.go:60",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("parsed facts = %v, want %v", got, want)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestAllocGateFixture runs the real compiler over the allocgate
// fixture: the strict //rws:allocfree escape and every unaudited
// //rws:hotpath escape — make, new, fmt and encoding/json, the bans the
// hotpath analyzer leaves to this pass — must be reported, the clean
// and coldpath-audited functions must not.
func TestAllocGateFixture(t *testing.T) {
	diags, err := AllocGatePatterns(".", []string{filepath.Join("testdata", "src", "allocgate")})
	if err != nil {
		t.Fatalf("AllocGatePatterns: %v", err)
	}
	find := func(sub string) bool {
		for _, d := range diags {
			if strings.Contains(d.Message, sub) {
				return true
			}
		}
		return false
	}
	if !find("//rws:allocfree function Escapes has a heap allocation") {
		t.Errorf("missing the Escapes finding; got %v", diags)
	}
	for _, fn := range []string{"HotMake", "HotNew", "HotFmt", "HotJSON"} {
		if !find("//rws:hotpath function " + fn + " has a heap allocation") {
			t.Errorf("missing the %s finding; got %v", fn, diags)
		}
	}
	if find("Clean") {
		t.Errorf("Clean must stay clean; got %v", diags)
	}
	if find("HotCold") {
		t.Errorf("HotCold's escape is //rws:coldpath-audited and must not be reported; got %v", diags)
	}
	for _, d := range diags {
		if d.Analyzer != "allocgate" {
			t.Errorf("diagnostic has analyzer %q, want allocgate", d.Analyzer)
		}
	}
}
