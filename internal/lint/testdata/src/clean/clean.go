// Package clean is the driver test's all-green input: annotated code
// that honors every contract, so rws-lint must exit zero on it.
package clean

import (
	"context"
	"sync"
)

type cache struct {
	mu sync.RWMutex
	m  map[string]int // guarded by mu
}

func (c *cache) Get(k string) (int, bool) {
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	return v, ok
}

func (c *cache) Put(k string, v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[string]int{}
	}
	c.m[k] = v
}

type registry struct {
	mu     sync.Mutex
	caches []*cache // guarded by mu
}

// Refresh acquires registry.mu before cache.mu, the only order the
// package uses.
func (r *registry) Refresh(k string, v int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.caches {
		c.Put(k, v)
	}
}

// Watch's goroutine terminates on context cancellation.
func Watch(ctx context.Context, tick <-chan struct{}, f func()) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick:
				f()
			}
		}
	}()
}

//rws:hotpath
func Shard(k string, n int) int {
	if n <= 0 {
		return 0
	}
	h := 0
	for i := 0; i < len(k); i++ {
		h = h*31 + int(k[i])
	}
	if h < 0 {
		h = -h
	}
	return h % n
}
