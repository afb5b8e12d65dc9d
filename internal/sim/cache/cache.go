// Package cache implements the set-associative cache tag stores used by
// the simulator's L1 instruction, L1 data, and unified L2 caches: LRU
// replacement, write-back with dirty-victim reporting, and hit/miss
// statistics. Timing (hit latencies, miss handling, MSHRs) is the
// concern of the enclosing memory hierarchy, not of this package.
package cache

import (
	"fmt"
	"slices"
)

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

// line is one way of a set in 16 bytes: the full tag, and lastUse, the
// tick of the access that last touched the line shifted left over its
// dirty bit. Ticks start at 1, so lastUse is non-zero exactly when the
// line is valid; no two accesses share a tick, so comparing lastUse
// orders lines by recency whatever their dirty bits.
type line struct {
	tag     uint64
	lastUse uint64
}

func (l line) valid() bool { return l.lastUse != 0 }
func (l line) dirty() bool { return l.lastUse&1 != 0 }

// use stamps l with tick, marking it dirty when dirty is set and keeping
// it dirty if it already was.
func (l *line) use(tick uint64, dirty bool) {
	l.lastUse = tick<<1 | l.lastUse&1
	if dirty {
		l.lastUse |= 1
	}
}

// Cache is a set-associative, write-back, write-allocate cache tag store
// with true-LRU replacement. The zero Cache is ready for Reset.
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
	c := new(Cache)
	c.Reset(cfg)
	return c
}

// Reset makes c the empty cache New(cfg) builds, with zero statistics.
// It reuses c's tag store when that holds enough lines, clearing only
// the lines cfg uses.
func (c *Cache) Reset(cfg Config) {
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
	lines := slices.Grow(c.lines[:0], nsets*cfg.Assoc)[:nsets*cfg.Assoc]
	clear(lines)
	*c = Cache{cfg: cfg, lines: lines}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	c.setMask = uint64(nsets - 1)
	c.tagShift = c.lineShift
	for s := nsets; s > 1; s >>= 1 {
		c.tagShift++
	}
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
		if lines[i].valid() && lines[i].tag == tag {
			lines[i].use(c.tick, write)
			return true, 0, false
		}
	}
	c.Stats.Misses++
	// Choose the LRU victim (prefer invalid ways).
	vi := 0
	for i := range lines {
		if !lines[i].valid() {
			vi = i
			break
		}
		if lines[i].lastUse < lines[vi].lastUse {
			vi = i
		}
	}
	if lines[vi].dirty() {
		writeback = true
		victim = c.lineAddr(set, lines[vi].tag)
		c.Stats.Writebacks++
	}
	lines[vi] = line{tag: tag}
	lines[vi].use(c.tick, write)
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
		if lines[i].valid() && lines[i].tag == tag {
			lines[i].use(c.tick, false)
			return 0, false
		}
	}
	vi := 0
	for i := range lines {
		if !lines[i].valid() {
			vi = i
			break
		}
		if lines[i].lastUse < lines[vi].lastUse {
			vi = i
		}
	}
	if lines[vi].dirty() {
		writeback = true
		victim = c.lineAddr(set, lines[vi].tag)
		c.Stats.Writebacks++
	}
	lines[vi] = line{tag: tag}
	lines[vi].use(c.tick, false)
	return victim, writeback
}

// Probe reports whether addr currently hits, without disturbing LRU
// state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for _, l := range c.ways(set) {
		if l.valid() && l.tag == tag {
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
