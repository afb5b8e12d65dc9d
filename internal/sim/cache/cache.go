// Package cache implements the set-associative cache tag stores used by
// the simulator's L1 instruction, L1 data, and unified L2 caches: LRU
// replacement, write-back with dirty-victim reporting, and hit/miss
// statistics. Timing (hit latencies, miss handling, MSHRs) is the
// concern of the enclosing memory hierarchy, not of this package.
package cache

import "fmt"

// Config sizes one cache.
type Config struct {
	Name      string
	SizeKB    int
	LineBytes int // power of two
	Assoc     int // ways per set
}

// Stats counts cache events.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns misses/accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag     uint64
	lastUse uint64
	valid   bool
	dirty   bool
}

// Cache is a set-associative, write-back, write-allocate cache tag store
// with true-LRU replacement.
type Cache struct {
	cfg       Config
	lines     []line // way w of set s at s*Assoc+w
	setMask   uint64
	lineShift uint
	tagShift  uint // lineShift + log2(sets)
	tick      uint64
	Stats     Stats
}

// New builds a cache from its configuration. SizeKB, LineBytes, and
// Assoc must describe at least one set; the set count is rounded down to
// a power of two so addresses index with masks.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 64
	}
	if cfg.Assoc <= 0 {
		cfg.Assoc = 4
	}
	bytes := cfg.SizeKB * 1024
	nsets := bytes / (cfg.LineBytes * cfg.Assoc)
	if nsets < 1 {
		nsets = 1
	}
	// Round down to a power of two.
	p := 1
	for p*2 <= nsets {
		p *= 2
	}
	nsets = p
	c := &Cache{cfg: cfg, lines: make([]line, nsets*cfg.Assoc)}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	c.setMask = uint64(nsets - 1)
	c.tagShift = c.lineShift
	for s := nsets; s > 1; s >>= 1 {
		c.tagShift++
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// index splits an address into set index and tag.
func (c *Cache) index(addr uint64) (set int, tag uint64) {
	return int(addr >> c.lineShift & c.setMask), addr >> c.tagShift
}

// ways returns the lines of one set.
func (c *Cache) ways(set int) []line {
	return c.lines[set*c.cfg.Assoc : (set+1)*c.cfg.Assoc]
}

// Access looks up addr, allocating on a miss. write marks the line dirty.
// On a miss that evicts a dirty victim, writeback is true and victim is a
// byte address within the evicted line, so the caller can model the
// write-back traffic.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim uint64, writeback bool) {
	c.tick++
	c.Stats.Accesses++
	set, tag := c.index(addr)
	lines := c.ways(set)
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lastUse = c.tick
			if write {
				lines[i].dirty = true
			}
			return true, 0, false
		}
	}
	c.Stats.Misses++
	// Choose the LRU victim (prefer invalid ways).
	vi := 0
	for i := range lines {
		if !lines[i].valid {
			vi = i
			break
		}
		if lines[i].lastUse < lines[vi].lastUse {
			vi = i
		}
	}
	if lines[vi].valid && lines[vi].dirty {
		writeback = true
		victim = c.lineAddr(set, lines[vi].tag)
		c.Stats.Writebacks++
	}
	lines[vi] = line{tag: tag, lastUse: c.tick, valid: true, dirty: write}
	return false, victim, writeback
}

// Fill installs the line containing addr without touching hit/miss
// statistics — the path used by prefetchers, whose fills are not demand
// accesses. It reports an evicted dirty victim like Access. Filling an
// already-resident line only refreshes its LRU position.
func (c *Cache) Fill(addr uint64) (victim uint64, writeback bool) {
	c.tick++
	set, tag := c.index(addr)
	lines := c.ways(set)
	for i := range lines {
		if lines[i].valid && lines[i].tag == tag {
			lines[i].lastUse = c.tick
			return 0, false
		}
	}
	vi := 0
	for i := range lines {
		if !lines[i].valid {
			vi = i
			break
		}
		if lines[i].lastUse < lines[vi].lastUse {
			vi = i
		}
	}
	if lines[vi].valid && lines[vi].dirty {
		writeback = true
		victim = c.lineAddr(set, lines[vi].tag)
		c.Stats.Writebacks++
	}
	lines[vi] = line{tag: tag, lastUse: c.tick, valid: true}
	return victim, writeback
}

// Probe reports whether addr currently hits, without disturbing LRU
// state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.ways(set) {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// lineAddr reconstructs a byte address from set and tag.
func (c *Cache) lineAddr(set int, tag uint64) uint64 {
	return tag<<c.tagShift | uint64(set)<<c.lineShift
}

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.cfg.LineBytes }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr >> c.lineShift << c.lineShift
}

func (c *Cache) String() string {
	return fmt.Sprintf("%s(%dKB %d-way %dB lines, %d sets)",
		c.cfg.Name, c.cfg.SizeKB, c.cfg.Assoc, c.cfg.LineBytes, c.Sets())
}
