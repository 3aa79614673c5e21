package core_test

import (
	"fmt"
	"strings"
	"testing"

	"rwskit/internal/amplify"
	"rwskit/internal/core"
	"rwskit/internal/dataset"
)

// TestListLookup holds the list's index to an independent walk of its
// sets: every Sets()[i].Members() entry looks up to that set pointer,
// position i and that role, over the embedded list, amplified lists and
// a ParseJSON round trip (which reorders the sets by primary). Off-list
// hosts and non-canonical spellings miss, because Lookup takes canonical
// hosts only; the spellings still resolve after CanonicalHost.
func TestListLookup(t *testing.T) {
	lists := map[string]*core.List{}
	embedded, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	lists["embedded"] = embedded
	for _, seed := range []int64{1, 2, 3} {
		list, err := amplify.Generate(amplify.Config{Sets: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		lists[fmt.Sprintf("amplified-seed%d", seed)] = list
	}
	raw, err := lists["amplified-seed1"].MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if lists["round-trip"], err = core.ParseJSON(raw); err != nil {
		t.Fatal(err)
	}

	for name, list := range lists {
		walked := 0
		for i, set := range list.Sets() {
			for _, m := range set.Members() {
				walked++
				got, pos, role, ok := list.Lookup(m.Site)
				if !ok || got != set || pos != i || role != m.Role {
					t.Fatalf("%s: Lookup(%q) = (%p, %d, %s, %v), want (%p, %d, %s, true)",
						name, m.Site, got, pos, role, ok, set, i, m.Role)
				}
				for _, spelling := range []string{strings.ToUpper(m.Site), m.Site + ".", "https://" + m.Site, m.Site + ":443"} {
					if spelling == m.Site {
						continue
					}
					if _, _, _, ok := list.Lookup(spelling); ok {
						t.Fatalf("%s: Lookup(%q) hit; only canonical hosts may", name, spelling)
					}
					if _, _, _, ok := list.Lookup(core.CanonicalHost(spelling)); !ok {
						t.Fatalf("%s: Lookup(CanonicalHost(%q)) missed", name, spelling)
					}
				}
			}
		}
		if walked != list.NumSites() {
			t.Errorf("%s: walked %d members, index holds %d sites", name, walked, list.NumSites())
		}
		for _, host := range []string{"", "off-list.invalid", "com", "."} {
			if set, pos, role, ok := list.Lookup(host); ok || set != nil || pos != 0 || role != 0 {
				t.Errorf("%s: off-list Lookup(%q) = (%p, %d, %s, %v), want a zero miss", name, host, set, pos, role, ok)
			}
		}
	}
}
