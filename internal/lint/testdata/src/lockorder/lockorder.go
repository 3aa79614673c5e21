// Package lockorder exercises the lockorder analyzer: direct and
// call-chain-induced cycles, //rws:locked entry seeding, and
// self-deadlock.
package lockorder

import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

// good takes A before B.
func good(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

// bad takes B before A, which closes the A→B→A cycle with good.
func bad(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock() // want `lock-order cycle \(potential deadlock\): lockorder\.A\.mu -> lockorder\.B\.mu -> lockorder\.A\.mu`
	a.mu.Unlock()
	b.mu.Unlock()
}

type D struct{ mu sync.Mutex }
type E struct{ mu sync.Mutex }

// underD acquires E.mu only transitively, through acquireE: the D→E
// edge comes from the call chain, not this body.
func underD(d *D, e *E) {
	d.mu.Lock()
	acquireE(e)
	d.mu.Unlock()
}

func acquireE(e *E) {
	e.mu.Lock()
	e.mu.Unlock()
}

func underE(d *D, e *E) {
	e.mu.Lock()
	d.mu.Lock() // want `lock-order cycle \(potential deadlock\): lockorder\.D\.mu -> lockorder\.E\.mu -> lockorder\.D\.mu`
	d.mu.Unlock()
	e.mu.Unlock()
}

type F struct{ mu sync.Mutex }
type G struct{ mu sync.Mutex }

// flushLocked holds F.mu at entry (the *Locked convention), so its
// G.mu acquisition is an F→G edge.
//
//rws:locked mu
func (f *F) flushLocked(g *G) {
	g.mu.Lock()
	g.mu.Unlock()
}

func underG(f *F, g *G) {
	g.mu.Lock()
	f.mu.Lock() // want `lock-order cycle \(potential deadlock\): lockorder\.F\.mu -> lockorder\.G\.mu -> lockorder\.F\.mu`
	f.mu.Unlock()
	g.mu.Unlock()
}

type S struct{ mu sync.Mutex }

func relock(s *S) {
	s.mu.Lock()
	s.mu.Lock() // want `acquires lockorder\.S\.mu while already holding it \(acquired at lockorder\.go:\d+\): guaranteed self-deadlock`
	s.mu.Unlock()
}
