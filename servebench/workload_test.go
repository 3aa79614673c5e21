package main

import (
	"io"
	"net/http"
	"testing"

	"rwskit/internal/amplify"
	"rwskit/internal/core"
)

// smallWindows is a sliding-window revision set over a 60-set amplified
// list: 20 sets per revision, 5 added and removed per step.
func smallWindows(t *testing.T) *revisionSet {
	t.Helper()
	list, err := amplify.Generate(amplify.Config{Sets: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rs := &revisionSet{pool: list.Sets(), size: 20, step: 5, maxCount: 9}
	for _, s := range rs.pool {
		b, err := core.MarshalSetJSON(s)
		if err != nil {
			t.Fatal(err)
		}
		rs.setJSON = append(rs.setJSON, b)
	}
	return rs
}

func TestSlidingWindowRevisions(t *testing.T) {
	rs := smallWindows(t)
	hashes := map[string]int{}
	var prev *revision
	for i := 0; i < rs.maxCount; i++ {
		rev, err := rs.build(i)
		if err != nil {
			t.Fatalf("revision %d: %v", i, err)
		}
		if rev.list.NumSets() != rs.size {
			t.Errorf("revision %d has %d sets, want %d", i, rev.list.NumSets(), rs.size)
		}
		// The body the origin serves parses back to the same list.
		parsed, err := core.ParseJSON(rev.body)
		if err != nil {
			t.Fatalf("revision %d body: %v", i, err)
		}
		if parsed.Hash() != rev.hash {
			t.Errorf("revision %d body hashes to %.12s, list to %.12s", i, parsed.Hash(), rev.hash)
		}
		if j, dup := hashes[rev.hash]; dup {
			t.Errorf("revisions %d and %d share hash %.12s", j, i, rev.hash)
		}
		hashes[rev.hash] = i
		if prev != nil {
			d := core.DiffLists(prev.list, rev.list)
			if len(d.AddedSets) != rs.step || len(d.RemovedSets) != rs.step {
				t.Errorf("revision %d: %d sets added, %d removed; want %d each", i, len(d.AddedSets), len(d.RemovedSets), rs.step)
			}
		}
		prev = rev
	}
	if _, err := rs.build(rs.maxCount); err == nil {
		t.Error("a revision past the generated pool was built")
	}
}

func TestOriginRevalidates(t *testing.T) {
	rs := smallWindows(t)
	r0, err := rs.build(0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := rs.build(1)
	if err != nil {
		t.Fatal(err)
	}
	o, err := startOrigin()
	if err != nil {
		t.Fatal(err)
	}
	defer o.close()
	get := func(etag string) (int, string, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, o.url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("ETag"), body
	}

	o.publish(r0)
	status, etag0, body := get("")
	if status != http.StatusOK || etag0 == "" || string(body) != string(r0.body) {
		t.Fatalf("first GET: status %d, ETag %q, %d body bytes", status, etag0, len(body))
	}
	if status, _, body := get(etag0); status != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("GET with a current ETag: status %d, %d body bytes; want 304 without a body", status, len(body))
	}
	o.publish(r1)
	status, etag1, body := get(etag0)
	if status != http.StatusOK || etag1 == etag0 || string(body) != string(r1.body) {
		t.Fatalf("GET after a publish: status %d, ETag %q (was %q)", status, etag1, etag0)
	}
	if got := o.notModified.Load(); got != 1 {
		t.Errorf("origin counted %d 304s, want 1", got)
	}
}
