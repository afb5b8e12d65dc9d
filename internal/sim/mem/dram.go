// Package mem models the main-memory subsystem behind the L2: DRAM
// device timing (banks with open-row policy, tRCD/tCAS/tRP), queuing at
// the memory controller (finite request queue), and contention for the
// shared memory data bus — the three effects §3 of the paper lists as
// explicitly modeled. All times are in CPU cycles.
package mem

import "slices"

// Config fixes the memory subsystem's timing. These are held constant
// across the design space; only the cache/queue parameters of Table 1
// vary in the study.
type Config struct {
	Banks      int // DRAM banks (power of two)
	RowBytes   int // bytes per row ("page") per bank
	TRCD       int // activate → column command, CPU cycles
	TCAS       int // column command → first data
	TRP        int // precharge on a row conflict
	BusCycles  int // data-bus occupancy per cache-line transfer
	QueueDepth int // controller request queue entries
}

// DefaultConfig models a 2006-era DDR2-style part behind a ~2 GHz core:
// ~60 cycles to first data on a row hit, ~110 on a conflict, 8 cycles of
// bus occupancy per 64-byte line.
func DefaultConfig() Config {
	return Config{
		Banks:      8,
		RowBytes:   2048,
		TRCD:       50,
		TCAS:       60,
		TRP:        50,
		BusCycles:  8,
		QueueDepth: 16,
	}
}

// Stats counts memory-system events.
type Stats struct {
	Requests     uint64
	RowHits      uint64
	RowConflicts uint64
	QueueStalls  uint64 // requests that waited for a queue slot
	BusWait      uint64 // total cycles requests waited for the bus
}

// Controller is the memory controller + DRAM + bus timing model. It is
// driven with Access calls carrying the current cycle and returns the
// cycle at which the requested line's data is fully delivered. The zero
// Controller is ready for Reset.
type Controller struct {
	cfg      Config
	bankFree []uint64 // earliest cycle each bank can start a new command
	openRow  []uint64
	rowValid []bool
	busFree  uint64
	inflight []uint64 // completion times of queued requests (unsorted)
	Stats    Stats
}

// New builds a controller; zero config fields take defaults.
func New(cfg Config) *Controller {
	c := new(Controller)
	c.Reset(cfg)
	return c
}

// Reset makes c the idle controller New(cfg) builds, every bank closed
// and free, with zero statistics. It reuses c's bank and queue arrays
// where they are large enough.
func (c *Controller) Reset(cfg Config) {
	d := DefaultConfig()
	if cfg.Banks <= 0 {
		cfg.Banks = d.Banks
	}
	if cfg.RowBytes <= 0 {
		cfg.RowBytes = d.RowBytes
	}
	if cfg.TRCD <= 0 {
		cfg.TRCD = d.TRCD
	}
	if cfg.TCAS <= 0 {
		cfg.TCAS = d.TCAS
	}
	if cfg.TRP <= 0 {
		cfg.TRP = d.TRP
	}
	if cfg.BusCycles <= 0 {
		cfg.BusCycles = d.BusCycles
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = d.QueueDepth
	}
	*c = Controller{
		cfg:      cfg,
		bankFree: zeroed(c.bankFree, cfg.Banks),
		openRow:  zeroed(c.openRow, cfg.Banks),
		rowValid: zeroed(c.rowValid, cfg.Banks),
		inflight: c.inflight[:0],
	}
}

// zeroed returns s resliced to n zero elements, reusing s's backing
// array when it holds n.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// Access issues a line fetch for addr at cycle now and returns the cycle
// at which the data has been delivered over the bus.
func (c *Controller) Access(now uint64, addr uint64) uint64 {
	c.Stats.Requests++

	// Queue admission: if the request queue is full, the request waits
	// until the earliest in-flight request completes.
	start := now
	if len(c.inflight) >= c.cfg.QueueDepth {
		earliest, ei := c.inflight[0], 0
		for i, t := range c.inflight {
			if t < earliest {
				earliest, ei = t, i
			}
		}
		if earliest > start {
			start = earliest
			c.Stats.QueueStalls++
		}
		c.inflight[ei] = c.inflight[len(c.inflight)-1]
		c.inflight = c.inflight[:len(c.inflight)-1]
	}
	// Drop completed requests from the queue.
	kept := c.inflight[:0]
	for _, t := range c.inflight {
		if t > start {
			kept = append(kept, t)
		}
	}
	c.inflight = kept

	// DRAM bank timing with an open-row policy.
	rowGlobal := addr / uint64(c.cfg.RowBytes)
	bank := int(rowGlobal) & (c.cfg.Banks - 1)
	row := rowGlobal / uint64(c.cfg.Banks)
	t0 := start
	if bf := c.bankFree[bank]; bf > t0 {
		t0 = bf
	}
	var lat uint64
	if c.rowValid[bank] && c.openRow[bank] == row {
		c.Stats.RowHits++
		lat = uint64(c.cfg.TCAS)
	} else {
		c.Stats.RowConflicts++
		lat = uint64(c.cfg.TRP + c.cfg.TRCD + c.cfg.TCAS)
		c.openRow[bank] = row
		c.rowValid[bank] = true
	}
	dataReady := t0 + lat
	c.bankFree[bank] = dataReady

	// Bus contention: the line transfer occupies the shared data bus.
	busStart := dataReady
	if c.busFree > busStart {
		c.Stats.BusWait += c.busFree - busStart
		busStart = c.busFree
	}
	complete := busStart + uint64(c.cfg.BusCycles)
	c.busFree = complete

	c.inflight = append(c.inflight, complete)
	return complete
}

// MinLatency returns the unloaded best-case latency (row hit, idle bus).
func (c *Controller) MinLatency() uint64 {
	return uint64(c.cfg.TCAS + c.cfg.BusCycles)
}
