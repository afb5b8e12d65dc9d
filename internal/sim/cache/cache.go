// Package cache implements the set-associative cache tag stores used by
// the simulator's L1 instruction, L1 data, and unified L2 caches: LRU
// replacement, write-back with dirty-victim reporting, and hit/miss
// statistics. A line costs 9 bytes: its tag, and one byte holding its
// dirty bit and its recency rank within the set, which orders the set
// exactly as true LRU does. Timing (hit latencies, miss handling, MSHRs)
// is the concern of the enclosing memory hierarchy, not of this package.
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

// A line is 9 bytes: its tag in Cache.tags, and a state byte at the
// same index in Cache.state. State 0 means invalid. Otherwise the byte
// is rank<<1 | dirty, where rank is the line's recency within its set,
// 1 for the most recently used. The valid lines of a set always hold
// the ranks 1..k, so the LRU line is the one of rank k.
const (
	dirtyBit = 1
	rankOne  = 1 << 1 // rank 1 over a clear dirty bit
	maxAssoc = 127    // a rank takes the state byte's other 7 bits
)

// Cache is a set-associative, write-back, write-allocate cache tag store
// with true-LRU replacement, of at most 127 ways a set. A hit or an
// install makes its line rank 1 and ages by one only the lines that
// were more recent than it; a miss replaces the first invalid way, else
// the line of the highest rank. That is the order a per-access tick
// would give, with no tick to overflow. The zero Cache is ready for
// Reset.
type Cache struct {
	cfg       Config
	tags      []uint64 // way w of set s at s*Assoc+w
	state     []uint8  // the state byte of the line at the same index of tags
	setMask   uint64
	lineShift uint
	tagShift  uint // lineShift + log2(sets)
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
// the state bytes cfg uses: no tag of an invalid line is ever read. It
// panics when cfg.Assoc exceeds 127, the most ways a rank can order.
func (c *Cache) Reset(cfg Config) {
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 64
	}
	if cfg.Assoc <= 0 {
		cfg.Assoc = 4
	}
	if cfg.Assoc > maxAssoc {
		panic(fmt.Sprintf("cache: %s has %d ways; a set holds at most %d", cfg.Name, cfg.Assoc, maxAssoc))
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
	n := nsets * cfg.Assoc
	state := slices.Grow(c.state[:0], n)[:n]
	clear(state)
	*c = Cache{cfg: cfg, tags: slices.Grow(c.tags[:0], n)[:n], state: state}
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

// lookup splits addr into its set and tag, and returns the set's tags
// and state bytes, of equal length, with the way holding the tag, or -1.
func (c *Cache) lookup(addr uint64) (set int, tag uint64, tags []uint64, state []uint8, way int) {
	set, tag = int(addr>>c.lineShift&c.setMask), addr>>c.tagShift
	lo := set * c.cfg.Assoc
	tags = c.tags[lo : lo+c.cfg.Assoc]
	state = c.state[lo : lo+len(tags)]
	for w, t := range tags {
		if t == tag && state[w] != 0 {
			return set, tag, tags, state, w
		}
	}
	return set, tag, tags, state, -1
}

// touch makes the valid line at way w its set's most recent, aging only
// the lines that were more recent than it, and marks it dirty when
// dirty is set, keeping it dirty if it already was.
func touch(state []uint8, w int, dirty bool) {
	s := state[w]
	if r := s &^ dirtyBit; r != rankOne {
		for i, o := range state {
			if o != 0 && o&^dirtyBit < r {
				state[i] = o + rankOne
			}
		}
		s = rankOne | s&dirtyBit
	}
	if dirty {
		s |= dirtyBit
	}
	state[w] = s
}

// install puts tag in its set as the most recent line, in the first
// invalid way, else in the LRU way, and reports a dirty victim's line
// address. Every other valid line ages by one: each was more recent
// than the line it replaces.
func (c *Cache) install(set int, tag uint64, tags []uint64, state []uint8, dirty bool) (victim uint64, writeback bool) {
	v := 0
	for i, s := range state {
		if s == 0 {
			v = i
			break
		}
		if s&^dirtyBit > state[v]&^dirtyBit {
			v = i
		}
	}
	if state[v]&dirtyBit != 0 {
		writeback = true
		victim = c.lineAddr(set, tags[v])
		c.Stats.Writebacks++
	}
	for i, s := range state {
		if s != 0 {
			state[i] = s + rankOne
		}
	}
	tags[v] = tag
	state[v] = rankOne
	if dirty {
		state[v] |= dirtyBit
	}
	return victim, writeback
}

// Access looks up addr, allocating on a miss. write marks the line dirty.
// On a miss that evicts a dirty victim, writeback is true and victim is a
// byte address within the evicted line, so the caller can model the
// write-back traffic.
func (c *Cache) Access(addr uint64, write bool) (hit bool, victim uint64, writeback bool) {
	c.Stats.Accesses++
	set, tag, tags, state, w := c.lookup(addr)
	if w >= 0 {
		touch(state, w, write)
		return true, 0, false
	}
	c.Stats.Misses++
	victim, writeback = c.install(set, tag, tags, state, write)
	return false, victim, writeback
}

// Fill installs the line containing addr without touching hit/miss
// statistics — the path used by prefetchers, whose fills are not demand
// accesses. It reports an evicted dirty victim like Access. Filling an
// already-resident line only refreshes its LRU position.
func (c *Cache) Fill(addr uint64) (victim uint64, writeback bool) {
	set, tag, tags, state, w := c.lookup(addr)
	if w >= 0 {
		touch(state, w, false)
		return 0, false
	}
	return c.install(set, tag, tags, state, false)
}

// Probe reports whether addr currently hits, without disturbing LRU
// state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	_, _, _, _, w := c.lookup(addr)
	return w >= 0
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
