package planner

import (
	"sort"
	"sync"

	"gpucnn/internal/conv"
)

// cacheKey identifies one decision. Devices are keyed by spec name —
// the granularity at which gpusim device profiles differ.
type cacheKey struct {
	device    string
	objective Objective
	cfg       conv.Config
}

// Cache stores decisions keyed by (device, objective, config). One
// process-wide DefaultCache backs every planner unless Options.Cache
// overrides it, so decisions made while planning one serving replica
// are reused by the per-device plans of every other replica — the
// fleet scores each layer once, not once per replica.
type Cache struct {
	mu     sync.Mutex
	m      map[cacheKey]Decision
	hits   int64
	misses int64
}

// DefaultCache is the process-wide decision cache.
var DefaultCache = NewCache()

// NewCache creates an empty decision cache. Tests use private caches
// for isolation from the process-wide default.
func NewCache() *Cache {
	return &Cache{m: make(map[cacheKey]Decision)}
}

func (c *Cache) lookup(device string, obj Objective, cfg conv.Config) (Decision, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.m[cacheKey{device, obj, cfg}]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return d, ok
}

// store inserts the decision unless another writer got there first, and
// returns the decision that ended up cached.
func (c *Cache) store(d Decision) Decision {
	key := cacheKey{d.Device, d.Objective, d.Cfg}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.m[key]; ok {
		return prev
	}
	c.m[key] = d
	return d
}

// CacheStats is a point-in-time cache counters snapshot.
type CacheStats struct {
	Entries int
	Hits    int64
	Misses  int64
}

// Stats returns the cache's counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: len(c.m), Hits: c.hits, Misses: c.misses}
}

// Snapshot returns every cached decision, ordered by device then
// config string — the dashboard's decision table.
func (c *Cache) Snapshot() []Decision {
	c.mu.Lock()
	out := make([]Decision, 0, len(c.m))
	for _, d := range c.m {
		out = append(out, d)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Device != out[j].Device {
			return out[i].Device < out[j].Device
		}
		return out[i].Cfg.String() < out[j].Cfg.String()
	})
	return out
}

// Reset drops every entry and zeroes the counters.
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = make(map[cacheKey]Decision)
	c.hits, c.misses = 0, 0
}
