package serve

import "sync"

// cache maps canonical spec hashes to completed result documents. The
// simulator is deterministic, so a hash fully identifies the bytes a
// run would produce; the gateway stores the first run's document
// verbatim and replays it bit-identically on every later submission.
//
// Eviction is FIFO at maxEntries — result docs are small (tables of
// text and metric samples), so the bound is about predictability, not
// memory pressure.
type cache struct {
	mu    sync.Mutex
	docs  map[string][]byte
	order []string // insertion order, for FIFO eviction
	max   int
}

func newCache(maxEntries int) *cache {
	return &cache{docs: map[string][]byte{}, max: maxEntries}
}

func (c *cache) get(hash string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	doc, ok := c.docs[hash]
	return doc, ok
}

func (c *cache) put(hash string, doc []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.docs[hash]; dup {
		return
	}
	for len(c.docs) >= c.max && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.docs, oldest)
	}
	c.docs[hash] = doc
	c.order = append(c.order, hash)
}

func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.docs)
}
