// Package hotpath exercises the hotpath analyzer: banned packages and
// functions, locks, structural bans (defer, go, map range, append),
// unprovable call targets, and the //rws:coldpath audited exit. Heap
// escapes (fmt, encoding/json, make, new) are the allocgate fixture's.
package hotpath

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

type table struct {
	mu    sync.Mutex
	shard [4]int
	m     map[string]string
}

// lookup is the clean request path: array indexing, strings helpers,
// and calls to other hotpath functions only.
//
//rws:hotpath
func (t *table) lookup(k string) int {
	return t.shard[len(k)%4] + helperHot(k)
}

//rws:hotpath
func helperHot(k string) int { return strings.Count(k, ".") }

func helperCold(k string) string { return fmt.Sprintf("%q", k) }

//rws:hotpath
func badCalls(t *table, k string) string {
	t.mu.Lock()       // want `hotpath function badCalls takes a lock \(Mutex\.Lock\): the hot path is lock-free`
	_ = rand.Intn(4)  // want `calls math/rand\.Intn: nondeterministic`
	_ = time.Now()    // want `calls time\.Now: reads the wall clock per request`
	_ = helperCold(k) // want `calls fixture/hotpath\.helperCold, which is not annotated //rws:hotpath`
	t.mu.Unlock()     // want `takes a lock \(Mutex\.Unlock\)`
	return k
}

//rws:hotpath
func badStructure(t *table) int {
	defer helperHot("x") // want `uses defer \(per-call allocation and latency\)`
	n := 0
	for k := range t.m { // want `ranges over a map \(nondeterministic order on the request path\)`
		n += len(k)
	}
	var s []int
	s = append(s, n)  // want `calls append \(per-request allocation\)`
	go helperHot("y") // want `spawns a goroutine`
	return n + len(s)
}

type evaluator interface{ Evaluate(string) int }

//rws:hotpath
func badIface(e evaluator, k string) int {
	return e.Evaluate(k) // want `calls interface method Evaluate \(target unprovable`
}

//rws:hotpath
func goodIfaceEscape(e evaluator, k string) int {
	if len(k) > 64 {
		return e.Evaluate(k) //rws:coldpath
	}
	return len(k)
}

//rws:hotpath
func badFnValue(f func() int) int {
	return f() // want `calls through a function value \(target unprovable`
}

//rws:hotpath
func goodColdEscape(k string) string {
	if len(k) > 64 {
		//rws:coldpath
		return helperCold(k)
	}
	return k
}
