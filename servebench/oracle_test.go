package main

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"rwskit/internal/dataset"
	"rwskit/internal/serve"
)

// TestOracleAgreesWithServerAndCatchesCorruption sends each request kind
// through a real serve.Server, expects the oracle to accept every answer,
// then corrupts one answer and expects the oracle to reject it.
func TestOracleAgreesWithServerAndCatchesCorruption(t *testing.T) {
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(list)
	w := workload{name: "oracle", mix: mixSpec{offList: 0.3, nonCanon: 0.3}}
	rev := &revision{list: list, hash: list.Hash()}
	g := newGenerator(w, nil, []*revision{rev}, 3)
	seen := map[kind]bool{}
	for _, r := range g.pool(400) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", r.path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", r.path, rec.Code, rec.Body)
		}
		if err := checkAnswer(list, r, rec.Body.Bytes()); err != nil {
			t.Errorf("oracle rejects a correct answer: %v", err)
		}
		seen[r.kind] = true
	}
	if len(seen) != 4 {
		t.Errorf("the pool covered %d request kinds, want 4", len(seen))
	}

	probe := &request{kind: kSameSet, rev: -1, hosts: []string{"bild.de", "autobild.de"}, path: "/v1/sameset?a=bild.de&b=autobild.de"}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", probe.path, nil))
	good := rec.Body.Bytes()
	if err := checkAnswer(list, probe, good); err != nil {
		t.Fatalf("oracle rejects the probe answer: %v", err)
	}
	bad := bytes.Replace(good, []byte(`"same_set":true`), []byte(`"same_set":false`), 1)
	if bytes.Equal(bad, good) {
		t.Fatalf("probe answer %s has no same_set:true to corrupt", good)
	}
	if err := checkAnswer(list, probe, bad); err == nil {
		t.Error("oracle accepted a corrupted answer")
	}
}

func TestCheckSampleRejectsUnknownAndWrongRevision(t *testing.T) {
	list, err := dataset.List()
	if err != nil {
		t.Fatal(err)
	}
	rev := &revision{list: list, hash: list.Hash()}
	b := &bench{revs: []*revision{rev, {hash: strings.Repeat("0", 64)}}, hashRev: map[string]int{rev.hash: 0}}
	body := []byte(`{"a":"bild.de","b":"autobild.de","same_set":true,"primary":"bild.de"}`)
	r := &request{kind: kSameSet, rev: -1, hosts: []string{"bild.de", "autobild.de"}, path: "/v1/sameset"}
	if err := b.checkSample(sample{req: r, etag: `"` + rev.hash + `"`, body: body}); err != nil {
		t.Fatalf("a correct sample was rejected: %v", err)
	}
	if err := b.checkSample(sample{req: r, etag: `"feedface"`, body: body}); err == nil {
		t.Error("an ETag naming no published revision was accepted")
	}
	pinned := *r
	pinned.rev = 1
	if err := b.checkSample(sample{req: &pinned, etag: `"` + rev.hash + `"`, body: body}); err == nil {
		t.Error("a pinned request answered from another revision was accepted")
	}
}
