package main

import (
	"strconv"
	"testing"
	"time"
)

// TestEveryStageKeepsSamples fills one stage with far more responses than
// a connection keeps, then runs a short later stage: the later stage must
// still yield its full share, drawn from all of it, as the churn stage
// does after the busy read stages.
func TestEveryStageKeepsSamples(t *testing.T) {
	b := &bench{seed: 5, epoch: time.Now(), conns: []*conn{{id: 0}, {id: 1}}}
	offer := func(tag string, n int) func(cn *conn, deadline int64) ([]rec, int, int) {
		return func(cn *conn, deadline int64) ([]rec, int, int) {
			for i := 0; i < n; i++ {
				cn.kept.offer(&request{path: strconv.Itoa(i)}, []byte(tag), []byte("{}"))
			}
			return nil, 0, 0
		}
	}
	busy := b.run("busy", 0, 0, offer("busy", 100*samplePerStage))
	late := b.run("late", 0, 0, offer("late", 4*samplePerStage))
	if want := 2 * samplePerStage; busy.sampled != want || late.sampled != want {
		t.Fatalf("stages kept %d and %d samples, want %d each", busy.sampled, late.sampled, want)
	}
	for _, cn := range b.conns {
		var fromLate, lastQuarter int
		for _, s := range cn.samples {
			if s.etag != "late" {
				continue
			}
			fromLate++
			if i, _ := strconv.Atoi(s.req.path); i >= 3*samplePerStage {
				lastQuarter++
			}
		}
		if fromLate != samplePerStage {
			t.Errorf("conn %d kept %d samples of the later stage, want %d", cn.id, fromLate, samplePerStage)
		}
		// A uniform draw puts about a quarter in the last quarter.
		if lastQuarter < samplePerStage/8 {
			t.Errorf("conn %d kept %d of %d later-stage samples from its last quarter", cn.id, lastQuarter, fromLate)
		}
	}
}
