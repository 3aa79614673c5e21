package source

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rwskit/internal/core"
)

const oneSetJSON = `{"sets":[{"primary":"https://a.com","associatedSites":["https://b.com"]}]}`
const twoSetJSON = `{"sets":[
  {"primary":"https://a.com","associatedSites":["https://b.com"]},
  {"primary":"https://c.com","associatedSites":["https://d.com"]}
]}`

// reserializedOneSetJSON is oneSetJSON with different bytes but identical
// semantics — the content-hash gate must treat it as unchanged.
const reserializedOneSetJSON = `{
  "sets": [ {"primary":"https://a.com", "associatedSites": ["https://b.com"]} ]
}`

func TestOpenDispatch(t *testing.T) {
	if _, ok := Open("/tmp/list.json").(*FileSource); !ok {
		t.Error("path should open a FileSource")
	}
	if _, ok := Open("relative/list.json").(*FileSource); !ok {
		t.Error("relative path should open a FileSource")
	}
	if _, ok := Open("https://example.com/list.json").(*HTTPSource); !ok {
		t.Error("https URL should open an HTTPSource")
	}
	if _, ok := Open("http://example.com/list.json").(*HTTPSource); !ok {
		t.Error("http URL should open an HTTPSource")
	}
}

// bump advances the file's mtime past the stat gate, simulating a write
// that lands in a later mtime granule.
func bump(t *testing.T, path string, step time.Duration) {
	t.Helper()
	future := time.Now().Add(step)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
}

func TestFileSourceGates(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "list.json")
	if err := os.WriteFile(path, []byte(oneSetJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	src := NewFileSource(path)
	if src.Location() != path {
		t.Errorf("Location = %q", src.Location())
	}

	// First fetch always returns the list, with file provenance.
	list, meta, err := src.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if list.NumSets() != 1 || meta.Hash != list.Hash() || meta.Location != path || meta.Size == 0 {
		t.Errorf("first fetch: %d sets, meta %+v", list.NumSets(), meta)
	}

	// Unchanged file: the stat gate answers without reading.
	if _, _, err := src.Fetch(ctx); !errors.Is(err, ErrNotModified) {
		t.Errorf("unchanged file: err = %v, want ErrNotModified", err)
	}

	// Touched but semantically identical: stat gate opens, hash gate holds.
	if err := os.WriteFile(path, []byte(reserializedOneSetJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	bump(t, path, 2*time.Second)
	if _, _, err := src.Fetch(ctx); !errors.Is(err, ErrNotModified) {
		t.Errorf("re-serialized content: err = %v, want ErrNotModified", err)
	}

	// Real change: a new revision comes back.
	if err := os.WriteFile(path, []byte(twoSetJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	bump(t, path, 4*time.Second)
	list, _, err = src.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if list.NumSets() != 2 {
		t.Errorf("changed file: %d sets, want 2", list.NumSets())
	}

	// Invalidate drops the stat gate (the next fetch re-reads the file)
	// but the hash gate still reports unchanged content as unchanged.
	src.Invalidate()
	if _, _, err := src.Fetch(ctx); !errors.Is(err, ErrNotModified) {
		t.Errorf("forced re-read of identical content: err = %v, want ErrNotModified", err)
	}
}

func TestFileSourceErrors(t *testing.T) {
	ctx := context.Background()
	if _, _, err := NewFileSource(filepath.Join(t.TempDir(), "missing.json")).Fetch(ctx); err == nil {
		t.Error("missing file should fail")
	}

	path := filepath.Join(t.TempDir(), "broken.json")
	os.WriteFile(path, []byte("not json"), 0o644)
	if _, _, err := NewFileSource(path).Fetch(ctx); err == nil || errors.Is(err, ErrNotModified) {
		t.Errorf("broken JSON: err = %v, want a parse error", err)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, _, err := NewFileSource(path).Fetch(cancelled); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: err = %v", err)
	}
}

// TestFileSourceWriterRace: a writer landing with an mtime older-or-equal
// to the recorded one must not be skipped forever — the source records
// the stat taken before the read, so the next poll re-reads.
func TestFileSourceStatBeforeRead(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "list.json")
	os.WriteFile(path, []byte(oneSetJSON), 0o644)
	src := NewFileSource(path)
	if _, _, err := src.Fetch(ctx); err != nil {
		t.Fatal(err)
	}
	// New content under a strictly newer mtime is always seen.
	os.WriteFile(path, []byte(twoSetJSON), 0o644)
	bump(t, path, 2*time.Second)
	if list, _, err := src.Fetch(ctx); err != nil || list.NumSets() != 2 {
		t.Fatalf("fetch after write: %v", err)
	}
}

// TestMetaVersion: the Version derivation prefers the file mtime, then
// the parsed Last-Modified, then the fetch time as the as-of instant.
func TestMetaVersion(t *testing.T) {
	fetched := time.Date(2024, 3, 26, 12, 0, 0, 0, time.UTC)
	mtime := time.Date(2024, 3, 20, 8, 0, 0, 0, time.UTC)

	fileMeta := Meta{Location: "/tmp/list.json", Hash: "abc", FetchedAt: fetched, ModTime: mtime, Size: 42}
	v := fileMeta.Version()
	if v.Hash != "abc" || v.Source != "/tmp/list.json" || !v.ObservedAt.Equal(fetched) || !v.AsOf.Equal(mtime) {
		t.Errorf("file Version = %+v", v)
	}

	httpMeta := Meta{
		Location:     "https://example.com/list.json",
		Hash:         "def",
		FetchedAt:    fetched,
		LastModified: "Tue, 26 Mar 2024 00:00:00 GMT",
	}
	v = httpMeta.Version()
	want := time.Date(2024, 3, 26, 0, 0, 0, 0, time.UTC)
	if !v.AsOf.Equal(want) || !v.ObservedAt.Equal(fetched) {
		t.Errorf("http Version = %+v, want as-of %s", v, want)
	}

	// Unparseable Last-Modified (or none at all): fall back to FetchedAt.
	httpMeta.LastModified = "not-a-date"
	if v = httpMeta.Version(); !v.AsOf.Equal(fetched) {
		t.Errorf("fallback AsOf = %s, want the fetch time", v.AsOf)
	}
}

// TestFileSourceMetaFetchedAt: real fetches stamp FetchedAt so version
// stores get a usable observed-at time.
func TestFileSourceMetaFetchedAt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "list.json")
	os.WriteFile(path, []byte(oneSetJSON), 0o644)
	before := time.Now()
	_, meta, err := NewFileSource(path).Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if meta.FetchedAt.Before(before) || meta.FetchedAt.After(time.Now()) {
		t.Errorf("FetchedAt = %s, want between the call and now", meta.FetchedAt)
	}
	if v := meta.Version(); !v.AsOf.Equal(meta.ModTime) {
		t.Errorf("file Version AsOf = %s, want the mtime %s", v.AsOf, meta.ModTime)
	}
}

// TestInvalidateBesideFetch calls Invalidate from a second goroutine
// while Fetch runs, on both sources. Under -race it fails if Invalidate
// touches the freshness gates (the HTTP validators, the file stat gate)
// outside the lock Fetch holds. Every Fetch still ends in the list or
// ErrNotModified.
func TestInvalidateBesideFetch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "list.json")
	if err := os.WriteFile(path, []byte(oneSetJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(&listServer{body: oneSetJSON, etag: `"v1"`})
	defer ts.Close()
	for name, src := range map[string]Source{"http": fastHTTP(ts.URL), "file": NewFileSource(path)} {
		t.Run(name, func(t *testing.T) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 50; i++ {
					src.Invalidate()
					time.Sleep(50 * time.Microsecond)
				}
			}()
			// Fetch until the invalidations are over, so both calls run.
			for i := 0; ; i++ {
				if _, _, err := src.Fetch(context.Background()); err != nil && !errors.Is(err, ErrNotModified) {
					t.Errorf("fetch %d: %v", i, err)
				}
				select {
				case <-done:
					return
				default:
				}
			}
		})
	}
}

// TestSourcesShareUnchangedSets: each source parses a new revision
// against the last list it delivered, so a set that did not change is
// the same *core.Set in both, and a changed one is not.
func TestSourcesShareUnchangedSets(t *testing.T) {
	const changed = `{"sets":[
  {"primary":"https://a.com","associatedSites":["https://b.com"]},
  {"primary":"https://c.com","associatedSites":["https://e.com"]}
]}`
	path := filepath.Join(t.TempDir(), "list.json")
	if err := os.WriteFile(path, []byte(twoSetJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	file := NewFileSource(path)
	upstream := &listServer{body: twoSetJSON, etag: `"v1"`}
	ts := httptest.NewServer(upstream)
	defer ts.Close()
	for name, src := range map[string]Source{"http": fastHTTP(ts.URL), "file": file} {
		t.Run(name, func(t *testing.T) {
			first, _, err := src.Fetch(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if name == "file" {
				if err := os.WriteFile(path, []byte(changed), 0o644); err != nil {
					t.Fatal(err)
				}
				file.Invalidate()
			} else {
				upstream.set(changed, `"v2"`)
			}
			second, _, err := src.Fetch(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for site, shared := range map[string]bool{"a.com": true, "c.com": false} {
				s1, _, _ := first.FindSet(site)
				s2, _, _ := second.FindSet(site)
				if (s1 == s2) != shared {
					t.Errorf("set %s shared = %v, want %v", site, s1 == s2, shared)
				}
			}
		})
	}
}

// TestSourcesParseAgainstReserializedBody: a body that re-serializes the
// last revision is ErrNotModified, but it becomes the parse base, so when
// one set then changes in the new formatting only that set is decoded.
// Decodes are counted through allocations, as core's
// TestParseJSONFromSkipsUnchangedSpans counts them.
func TestSourcesParseAgainstReserializedBody(t *testing.T) {
	const n = 40
	body := func(edited int) string {
		sets := make([]string, n)
		for i := range sets {
			why := "brand"
			if i == edited {
				why = "owner"
			}
			sets[i] = fmt.Sprintf(`{"primary":"https://s%03d.com","associatedSites":["https://s%03d-a.com"],"rationaleBySite":{"https://s%03d-a.com":%q}}`, i, i, i, why)
		}
		return `{"sets":[` + strings.Join(sets, ",") + "]}"
	}
	indent := func(body string) string {
		var out bytes.Buffer
		if err := json.Indent(&out, []byte(body), "", "  "); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	parse := func(body string) *core.Revision {
		rev, err := core.ParseJSONFrom([]byte(body), nil)
		if err != nil {
			t.Fatal(err)
		}
		return rev
	}
	allocs := func(body string, prev *core.Revision) float64 {
		data := []byte(body)
		return testing.AllocsPerRun(10, func() {
			if _, err := core.ParseJSONFrom(data, prev); err != nil {
				t.Fatal(err)
			}
		})
	}
	compact, reindented, changed := body(-1), indent(body(-1)), indent(body(7))
	base := allocs(reindented, parse(reindented)) // every set taken
	perSet := (allocs(reindented, parse(compact)) - base) / n
	if perSet < 2 {
		t.Fatalf("decoding a set costs %.1f allocations, too few to count decodes by", perSet)
	}

	path := filepath.Join(t.TempDir(), "list.json")
	if err := os.WriteFile(path, []byte(compact), 0o644); err != nil {
		t.Fatal(err)
	}
	file := NewFileSource(path)
	upstream := &listServer{body: compact, etag: `"v1"`}
	ts := httptest.NewServer(upstream)
	defer ts.Close()
	web := fastHTTP(ts.URL)
	for name, src := range map[string]Source{"http": web, "file": file} {
		publish := func(body, etag string) {
			if name == "http" {
				upstream.set(body, etag)
				return
			}
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			file.Invalidate()
		}
		last := func() *core.Revision {
			if name == "http" {
				web.mu.Lock()
				defer web.mu.Unlock()
				return web.last
			}
			file.mu.Lock()
			defer file.mu.Unlock()
			return file.last
		}
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			if _, _, err := src.Fetch(ctx); err != nil {
				t.Fatal(err)
			}
			publish(reindented, `"v2"`)
			if _, _, err := src.Fetch(ctx); !errors.Is(err, ErrNotModified) {
				t.Fatalf("re-serialized body: err = %v, want ErrNotModified", err)
			}
			if extra := allocs(changed, last()) - base; extra > 3*perSet {
				t.Errorf("one changed set costs %.0f allocations over taking every set, %.1f per decoded set: "+
					"the parse base is not the re-serialized body", extra, perSet)
			}
			publish(changed, `"v3"`)
			list, _, err := src.Fetch(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if s, _, _ := list.FindSet("s007.com"); s == nil || s.RationaleBySite["s007-a.com"] != "owner" {
				t.Errorf("changed set not delivered: %+v", s)
			}
		})
	}
}
