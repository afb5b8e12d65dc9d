package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestColdMissThenHit(t *testing.T) {
	c := New(Config{Name: "l1", SizeKB: 8, LineBytes: 64, Assoc: 2})
	hit, _, _ := c.Access(0x1000, false)
	if hit {
		t.Fatal("cold access hit")
	}
	hit, _, _ = c.Access(0x1000, false)
	if !hit {
		t.Fatal("second access missed")
	}
	// Same line, different byte.
	hit, _, _ = c.Access(0x103F, false)
	if !hit {
		t.Fatal("same-line access missed")
	}
	// Next line.
	hit, _, _ = c.Access(0x1040, false)
	if hit {
		t.Fatal("next-line access hit")
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way cache; three conflicting lines evict the least recently used.
	c := New(Config{SizeKB: 1, LineBytes: 64, Assoc: 2}) // 8 sets
	setStride := uint64(64 * 8)
	a, b, d := uint64(0), setStride, 2*setStride // all map to set 0
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a most recent
	c.Access(d, false) // evicts b
	if !c.Probe(a) {
		t.Fatal("a evicted despite being MRU")
	}
	if c.Probe(b) {
		t.Fatal("b survived despite being LRU")
	}
	if !c.Probe(d) {
		t.Fatal("d not resident after fill")
	}
}

// TestDirtyBitKeepsRecency: the state byte packs the dirty bit under
// the rank, and a line, 8 bytes of tag plus 1 state byte, holds a full
// tag. An older dirty line is still the LRU victim of a younger clean
// one, a write-hit keeps a line dirty through later clean hits, and the
// tag bits no address can spare still tell lines apart.
func TestDirtyBitKeepsRecency(t *testing.T) {
	c := New(Config{SizeKB: 1, LineBytes: 64, Assoc: 2}) // 8 sets
	if n := unsafe.Sizeof(c.tags[0]) + unsafe.Sizeof(c.state[0]); n != 9 {
		t.Fatalf("a tag-store line is %d bytes, want 8 of tag and 1 of state", n)
	}
	if lines := c.Sets() * 2; len(c.tags) != lines || len(c.state) != lines {
		t.Fatalf("%d tags and %d state bytes, want one each for %d lines", len(c.tags), len(c.state), lines)
	}
	setStride := uint64(64 * 8)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a, true)  // dirty, older
	c.Access(b, false) // clean, younger
	if _, victim, wb := c.Access(d, false); !wb || victim != a || c.Probe(a) || !c.Probe(b) {
		t.Fatalf("miss evicted writeback=%v victim %#x; want the older dirty line %#x", wb, victim, a)
	}
	c.Access(b, true)
	c.Access(b, false) // a clean hit keeps b dirty
	c.Access(d, false) // b is now LRU
	if _, victim, wb := c.Access(a, false); !wb || victim != b {
		t.Fatalf("evicting b: writeback=%v victim %#x, want b %#x written back", wb, victim, b)
	}
	top := ^uint64(0) &^ 63 // the highest line: every tag bit set
	c.Access(top, false)
	if !c.Probe(top) || c.Probe(top&^(1<<63)) {
		t.Fatal("the top tag bit does not tell lines apart")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New(Config{SizeKB: 1, LineBytes: 64, Assoc: 1}) // direct mapped, 16 sets
	setStride := uint64(64 * 16)
	c.Access(0x0, true) // dirty
	_, victim, wb := c.Access(setStride, false)
	if !wb {
		t.Fatal("dirty victim not reported")
	}
	if victim != 0x0 {
		t.Fatalf("victim addr = %#x, want 0x0", victim)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats.Writebacks)
	}
	// Clean eviction reports no writeback.
	_, _, wb = c.Access(2*setStride, false)
	if wb {
		t.Fatal("clean victim reported as writeback")
	}
}

func TestProbeDoesNotDisturbState(t *testing.T) {
	c := New(Config{SizeKB: 1, LineBytes: 64, Assoc: 2})
	setStride := uint64(64 * 8)
	c.Access(0, false)
	c.Access(setStride, false)
	before := c.Stats
	for i := 0; i < 10; i++ {
		c.Probe(0)
	}
	if c.Stats != before {
		t.Fatal("Probe changed statistics")
	}
	// Probing 0 ten times must not have refreshed its LRU position:
	// line 0 is still LRU, so a new fill evicts it.
	c.Access(2*setStride, false)
	if c.Probe(0) {
		t.Fatal("Probe refreshed LRU state")
	}
}

func TestLargerCacheNeverMissesMore(t *testing.T) {
	// Property: on any access stream, doubling capacity (same assoc &
	// line) cannot increase misses for LRU (stack inclusion holds per
	// set only, so verify on uniformly random streams statistically).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		small := New(Config{SizeKB: 4, LineBytes: 64, Assoc: 4})
		big := New(Config{SizeKB: 16, LineBytes: 64, Assoc: 4})
		for i := 0; i < 4000; i++ {
			addr := uint64(rng.Intn(64 * 1024))
			small.Access(addr, false)
			big.Access(addr, false)
		}
		return big.Stats.Misses <= small.Stats.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestWorkingSetFitsAfterWarmup(t *testing.T) {
	// A working set smaller than capacity has zero steady-state misses.
	c := New(Config{SizeKB: 8, LineBytes: 64, Assoc: 4})
	for pass := 0; pass < 3; pass++ {
		for addr := uint64(0); addr < 4*1024; addr += 64 {
			c.Access(addr, false)
		}
	}
	warmMisses := c.Stats.Misses
	for addr := uint64(0); addr < 4*1024; addr += 64 {
		c.Access(addr, false)
	}
	if c.Stats.Misses != warmMisses {
		t.Fatalf("steady-state misses: %d new", c.Stats.Misses-warmMisses)
	}
	if warmMisses != 64 {
		t.Fatalf("warmup misses = %d, want 64 cold misses", warmMisses)
	}
}

func TestStreamingThrashesTinyCache(t *testing.T) {
	c := New(Config{SizeKB: 1, LineBytes: 64, Assoc: 1})
	// Stream 64KB repeatedly: every access a miss after the set wraps.
	for pass := 0; pass < 2; pass++ {
		for addr := uint64(0); addr < 64*1024; addr += 64 {
			c.Access(addr, false)
		}
	}
	if c.Stats.MissRate() < 0.99 {
		t.Fatalf("streaming miss rate = %v, want ~1", c.Stats.MissRate())
	}
}

func TestSetCountPowerOfTwo(t *testing.T) {
	for _, kb := range []int{1, 2, 3, 8, 12, 64, 100} {
		c := New(Config{SizeKB: kb, LineBytes: 64, Assoc: 4})
		n := c.Sets()
		if n&(n-1) != 0 || n < 1 {
			t.Fatalf("SizeKB=%d: %d sets not a power of two", kb, n)
		}
	}
}

func TestLineAddrAlignment(t *testing.T) {
	c := New(Config{SizeKB: 8, LineBytes: 64, Assoc: 2})
	if got := c.LineAddr(0x12345); got != 0x12340 {
		t.Fatalf("LineAddr = %#x, want 0x12340", got)
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := New(Config{SizeKB: 8})
	if c.LineBytes() != 64 {
		t.Fatalf("default line = %d", c.LineBytes())
	}
	if c.Config().Assoc != 4 {
		t.Fatalf("default assoc = %d", c.Config().Assoc)
	}
}

func TestFillDoesNotCountAccesses(t *testing.T) {
	c := New(Config{SizeKB: 8, LineBytes: 64, Assoc: 2})
	before := c.Stats
	c.Fill(0x2000)
	if c.Stats.Accesses != before.Accesses || c.Stats.Misses != before.Misses {
		t.Fatalf("Fill changed access stats: %+v", c.Stats)
	}
	if !c.Probe(0x2000) {
		t.Fatal("Fill did not install the line")
	}
	// A demand access to the filled line is a hit.
	hit, _, _ := c.Access(0x2000, false)
	if !hit {
		t.Fatal("filled line missed on demand access")
	}
}

func TestFillReportsDirtyVictim(t *testing.T) {
	c := New(Config{SizeKB: 1, LineBytes: 64, Assoc: 1}) // 16 sets
	c.Access(0x0, true)                                  // dirty
	victim, wb := c.Fill(64 * 16)                        // same set
	if !wb || victim != 0 {
		t.Fatalf("Fill victim = (%#x,%v), want (0,true)", victim, wb)
	}
}

// tickCache is the tag store before recency ranks, kept as the oracle
// FuzzCacheLRU compares Cache against: 16-byte lines of the full tag and
// lastUse, the tick of the access that last touched the line shifted
// left over its dirty bit. Ticks start at 1, so lastUse is non-zero
// exactly when the line is valid; no two accesses share a tick, so
// comparing lastUse orders lines by recency whatever their dirty bits.
type tickCache struct {
	lines     []tickLine // way w of set s at s*assoc+w
	assoc     int
	setMask   uint64
	lineShift uint
	tagShift  uint
	tick      uint64
	Stats     Stats
}

type tickLine struct {
	tag     uint64
	lastUse uint64
}

func (l tickLine) valid() bool { return l.lastUse != 0 }
func (l tickLine) dirty() bool { return l.lastUse&1 != 0 }

func (l *tickLine) use(tick uint64, dirty bool) {
	l.lastUse = tick<<1 | l.lastUse&1
	if dirty {
		l.lastUse |= 1
	}
}

// newTickCache sizes the oracle as Reset sizes a Cache.
func newTickCache(cfg Config) *tickCache {
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 64
	}
	if cfg.Assoc <= 0 {
		cfg.Assoc = 4
	}
	nsets := cfg.SizeKB * 1024 / (cfg.LineBytes * cfg.Assoc)
	p := 1
	for p*2 <= nsets {
		p *= 2
	}
	c := &tickCache{lines: make([]tickLine, p*cfg.Assoc), assoc: cfg.Assoc, setMask: uint64(p - 1)}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	c.tagShift = c.lineShift
	for s := p; s > 1; s >>= 1 {
		c.tagShift++
	}
	return c
}

func (c *tickCache) ways(addr uint64) (set int, tag uint64, lines []tickLine) {
	set, tag = int(addr>>c.lineShift&c.setMask), addr>>c.tagShift
	return set, tag, c.lines[set*c.assoc : (set+1)*c.assoc]
}

// use touches addr's line as Access (demand) or Fill (not demand) does.
func (c *tickCache) use(addr uint64, write, demand bool) (hit bool, victim uint64, writeback bool) {
	c.tick++
	if demand {
		c.Stats.Accesses++
	}
	set, tag, lines := c.ways(addr)
	for i := range lines {
		if lines[i].valid() && lines[i].tag == tag {
			lines[i].use(c.tick, write)
			return true, 0, false
		}
	}
	if demand {
		c.Stats.Misses++
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
		victim = lines[vi].tag<<c.tagShift | uint64(set)<<c.lineShift
		c.Stats.Writebacks++
	}
	lines[vi] = tickLine{tag: tag}
	lines[vi].use(c.tick, write)
	return false, victim, writeback
}

func (c *tickCache) Probe(addr uint64) bool {
	_, tag, lines := c.ways(addr)
	for _, l := range lines {
		if l.valid() && l.tag == tag {
			return true
		}
	}
	return false
}

// FuzzCacheLRU drives a Cache and the tickCache oracle through the same
// sequence of Access, Fill and Probe calls and requires every hit,
// victim, writeback, Probe answer and Stats value to agree at every
// step. The first three bytes choose the geometry: 1–16 ways, 1–4 KB,
// 16-, 32- or 64-byte lines. Each later three bytes make one call: its
// kind, its write flag and an address, a 16-byte step within 1 KB in
// one of four regions 1 MB apart, moved to the top 4 GB of the address
// space when the third byte's top bit is set. The eight 1 KB spans map
// onto the same sets, so lines conflict, hit and age. The sequence runs
// twice, the second time on the same Cache after a Reset to a geometry
// of one more way, so stale tags must not show.
func FuzzCacheLRU(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 0, 0, 1, 0, 8, 0, 0, 16, 4, 0, 0, 2, 0, 0})
	f.Add([]byte{7, 3, 0, 0, 1, 2, 4, 1, 2, 1, 1, 2, 5, 200, 7, 0, 1, 2})
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3+3*1000)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := Config{Assoc: 1 + int(data[0]%16), SizeKB: 1 + int(data[1]%4), LineBytes: 16 << (data[2] % 3)}
		ops := data[3:]
		c := New(Config{SizeKB: 4, LineBytes: 16, Assoc: 16})
		for pass := 0; pass < 2; pass++ {
			c.Reset(cfg)
			o := newTickCache(cfg)
			for i := 0; i+3 <= len(ops); i += 3 {
				op := ops[i : i+3]
				write := op[0]&4 != 0
				addr := uint64(op[1]%64)<<4 | uint64(op[2]%4)<<20 | uint64(op[0]>>3)
				if op[2]&0x80 != 0 {
					addr |= 0xffff_ffff_0000_0000
				}
				var got, want [3]uint64
				switch op[0] % 3 {
				case 0:
					h, v, wb := c.Access(addr, write)
					oh, ov, owb := o.use(addr, write, true)
					got, want = [3]uint64{b2u(h), v, b2u(wb)}, [3]uint64{b2u(oh), ov, b2u(owb)}
				case 1:
					v, wb := c.Fill(addr)
					_, ov, owb := o.use(addr, false, false)
					got, want = [3]uint64{0, v, b2u(wb)}, [3]uint64{0, ov, b2u(owb)}
				case 2:
					got[0], want[0] = b2u(c.Probe(addr)), b2u(o.Probe(addr))
				}
				if got != want || c.Stats != o.Stats {
					t.Fatalf("%+v pass %d call %d (kind %d, addr %#x, write %v): (hit, victim, writeback) %v stats %+v, oracle %v stats %+v",
						cfg, pass, i/3, op[0]%3, addr, write, got, c.Stats, want, o.Stats)
				}
			}
			cfg.Assoc++
		}
	})
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestAssocLimit: 127 ways, the most a rank orders, match the oracle on
// one full set; a 128th way panics at Reset.
func TestAssocLimit(t *testing.T) {
	cfg := Config{SizeKB: 8, LineBytes: 64, Assoc: 127} // one set
	c, o := New(cfg), newTickCache(cfg)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		addr, write := uint64(rng.Intn(160))<<6, rng.Intn(4) == 0
		h, v, wb := c.Access(addr, write)
		oh, ov, owb := o.use(addr, write, true)
		if h != oh || v != ov || wb != owb || c.Stats != o.Stats {
			t.Fatalf("access %d of %#x: (%v, %#x, %v) %+v, oracle (%v, %#x, %v) %+v", i, addr, h, v, wb, c.Stats, oh, ov, owb, o.Stats)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset accepted 128 ways")
		}
	}()
	c.Reset(Config{SizeKB: 8, LineBytes: 64, Assoc: 128})
}
