// Package allocgate is the compiler-escape-analysis fixture, checked
// through AllocGatePatterns (which shells out to go build -gcflags=-m=2)
// rather than the in-process driver — so no // want comments here; the
// test asserts the findings programmatically. HotFmt, HotJSON, HotMake
// and HotNew are the hotpath allocations the hotpath analyzer leaves to
// this pass.
package allocgate

import (
	"encoding/json"
	"fmt"
)

//rws:allocfree
func Clean(xs []int, i int) int {
	if len(xs) == 0 {
		return 0
	}
	return xs[i%len(xs)]
}

//rws:allocfree
func Escapes(n int) *int {
	return &n // the compiler moves n to the heap
}

//rws:hotpath
func HotMake(n int) []int {
	return make([]int, n) // non-constant size: escapes to heap
}

//rws:hotpath
func HotNew(n int) *int {
	p := new(int) // returned: escapes to heap
	*p = n
	return p
}

//rws:hotpath
func HotFmt(n int) string {
	return fmt.Sprint(n) // n is boxed into fmt's ...any
}

//rws:hotpath
func HotJSON(n int) []byte {
	b, _ := json.Marshal(n) // n is boxed into json's any
	return b
}

//rws:hotpath
func HotCold(n int) []int {
	if n > 64 {
		return make([]int, n) //rws:coldpath
	}
	return nil
}
