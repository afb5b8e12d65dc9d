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

// TestDirtyBitKeepsRecency: lastUse packs the dirty bit under the tick,
// and a line 16 bytes long holds a full tag. An older dirty line is
// still the LRU victim of a younger clean one, a write-hit keeps a line
// dirty through later clean hits, and the tag bits no address can
// spare still tell lines apart.
func TestDirtyBitKeepsRecency(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n != 16 {
		t.Fatalf("a tag-store line is %d bytes, want 16", n)
	}
	c := New(Config{SizeKB: 1, LineBytes: 64, Assoc: 2}) // 8 sets
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
