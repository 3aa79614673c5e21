// Package knownbad is the driver test's deliberately-broken input:
// rws-lint must exit nonzero on it. No // want comments here — the
// driver prints raw diagnostics, it does not run the fixture harness.
package knownbad

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

type box struct {
	mu sync.Mutex
	v  int // guarded by mu
}

func ReadBox(b *box) int { return b.v }

// Format heap-allocates (allocgate's finding) and Stamp reads the clock
// (hotpath's).
//
//rws:hotpath
func Format(v int) string { return fmt.Sprintf("%d", v) }

//rws:hotpath
func Stamp() int64 { return time.Now().UnixNano() }

type left struct{ mu sync.Mutex }
type right struct{ mu sync.Mutex }

// LockLR and LockRL together close a lock-order cycle.
func LockLR(l *left, r *right) {
	l.mu.Lock()
	r.mu.Lock()
	r.mu.Unlock()
	l.mu.Unlock()
}

func LockRL(l *left, r *right) {
	r.mu.Lock()
	l.mu.Lock()
	l.mu.Unlock()
	r.mu.Unlock()
}

// Spin leaks a goroutine with no termination path.
func Spin() {
	go func() {
		for {
		}
	}()
}

// Handle mints a root context below a request handler.
func Handle(w http.ResponseWriter, r *http.Request) {
	_ = context.Background()
}
