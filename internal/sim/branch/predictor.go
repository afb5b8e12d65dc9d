// Package branch implements the simulator's branch direction and target
// predictors: a McFarling-style tournament of a bimodal (per-PC) 2-bit
// predictor and a two-level local-history predictor (per-branch history
// indexing a hashed pattern table), arbitrated by a per-PC chooser, plus
// a direct-mapped branch target buffer and a return address stack. The
// bimodal component learns each branch's bias within a few visits; the
// local component captures periodic behaviour (loop trip counts, guard
// patterns); the chooser picks whichever has been more accurate for that
// branch.
package branch

import "slices"

// Config sizes the predictor.
type Config struct {
	BimodalBits   int // log2(bimodal table entries)
	LocalHistBits int // local history length in bits
	LocalBits     int // log2(local pattern table entries)
	LocalRows     int // local history table entries (power of two)
	BTBEntries    int // power of two
	RASEntries    int
}

// DefaultConfig is the fixed predictor used across the design space (the
// paper varies nine other parameters; the predictor is held constant).
func DefaultConfig() Config {
	return Config{BimodalBits: 12, LocalHistBits: 8, LocalBits: 15, LocalRows: 16384, BTBEntries: 4096, RASEntries: 16}
}

// Stats counts predictor events.
type Stats struct {
	Lookups        uint64
	DirMispredicts uint64
	BTBMisses      uint64
}

// MispredictRate returns direction mispredictions per lookup.
func (s Stats) MispredictRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.DirMispredicts) / float64(s.Lookups)
}

// Checkpoint captures the speculative predictor state for one predicted
// branch, so the pipeline can train with prediction-time indices and
// repair the speculative local history after a misprediction flush.
type Checkpoint struct {
	LocalHist   uint16
	BimodalPred bool
	LocalPred   bool
}

type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
}

// Predictor is the tournament branch predictor. The local history is
// updated speculatively at prediction time; Restore repairs it on a
// flush. The zero Predictor is ready for Reset.
type Predictor struct {
	cfg Config

	bim     []uint8 // bimodal 2-bit counters, PC-indexed
	bimMask uint64

	lht      []uint16 // local history table, PC-indexed
	lhtMask  uint64
	histMask uint16  // keeps LocalHistBits of history
	lpht     []uint8 // local pattern table, indexed by hash(history, PC)
	lmask    uint64

	choice []uint8 // 2-bit chooser, PC-indexed: ≥2 → use local
	chMask uint64

	btb     []btbEntry
	btbMask uint64
	ras     []uint64
	rasTop  int

	Stats Stats
}

// New builds a predictor; zero config fields take defaults.
func New(cfg Config) *Predictor {
	p := new(Predictor)
	p.Reset(cfg)
	return p
}

// Reset makes p the untrained predictor New(cfg) builds, with zero
// statistics. It reuses p's tables where they are large enough,
// reinitializing only the entries cfg uses.
func (p *Predictor) Reset(cfg Config) {
	d := DefaultConfig()
	if cfg.BimodalBits <= 0 {
		cfg.BimodalBits = d.BimodalBits
	}
	if cfg.LocalHistBits <= 0 {
		cfg.LocalHistBits = d.LocalHistBits
	}
	if cfg.LocalHistBits > 16 {
		cfg.LocalHistBits = 16
	}
	if cfg.LocalBits <= 0 {
		cfg.LocalBits = d.LocalBits
	}
	if cfg.LocalRows <= 0 {
		cfg.LocalRows = d.LocalRows
	}
	if cfg.BTBEntries <= 0 {
		cfg.BTBEntries = d.BTBEntries
	}
	if cfg.RASEntries <= 0 {
		cfg.RASEntries = d.RASEntries
	}
	b := 1 << cfg.BimodalBits
	rows := pow2(cfg.LocalRows)
	l := 1 << cfg.LocalBits
	nb := pow2(cfg.BTBEntries)
	*p = Predictor{
		cfg:      cfg,
		bim:      table(p.bim, b, 1), // weakly not-taken
		bimMask:  uint64(b - 1),
		lht:      table(p.lht, rows, 0),
		lhtMask:  uint64(rows - 1),
		histMask: uint16(1<<cfg.LocalHistBits) - 1,
		lpht:     table(p.lpht, l, 1),
		lmask:    uint64(l - 1),
		choice:   table(p.choice, b, 1), // weakly prefer bimodal until local proves itself
		chMask:   uint64(b - 1),
		btb:      table(p.btb, nb, btbEntry{}),
		btbMask:  uint64(nb - 1),
		ras:      table(p.ras, cfg.RASEntries, 0),
	}
}

// table returns s resliced to n entries, each set to v, reusing s's
// backing array when it holds n.
func table[T any](s []T, n int, v T) []T {
	s = slices.Grow(s[:0], n)[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

func pow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// lIdx indexes the local pattern table by per-branch history hashed with
// the PC, so branches with coincidentally equal histories do not share
// pattern entries.
func (p *Predictor) lIdx(pc uint64, hist uint16) uint64 {
	return (uint64(hist&p.histMask) ^ ((pc >> 2) * 0x9E3779B1)) & p.lmask
}

// PredictDirection returns the tournament's predicted direction for the
// branch at pc, speculatively updating the local history, and the
// checkpoint the pipeline must hold for Update/Restore.
func (p *Predictor) PredictDirection(pc uint64) (bool, Checkpoint) {
	p.Stats.Lookups++
	cp := Checkpoint{}
	cp.BimodalPred = p.bim[(pc>>2)&p.bimMask] >= 2
	lRow := (pc >> 2) & p.lhtMask
	cp.LocalHist = p.lht[lRow]
	cp.LocalPred = p.lpht[p.lIdx(pc, cp.LocalHist)] >= 2

	taken := cp.BimodalPred
	if p.choice[(pc>>2)&p.chMask] >= 2 {
		taken = cp.LocalPred
	}
	p.lht[lRow] = ((cp.LocalHist << 1) | uint16(b2u(taken))) & p.histMask
	return taken, cp
}

// Update trains the component tables with the resolved outcome, using
// prediction-time indices from the checkpoint.
func (p *Predictor) Update(pc uint64, cp Checkpoint, taken bool) {
	bump(&p.bim[(pc>>2)&p.bimMask], taken)
	bump(&p.lpht[p.lIdx(pc, cp.LocalHist)], taken)
	// Chooser trains only when the components disagree; it moves toward
	// the component that was right.
	if cp.BimodalPred != cp.LocalPred {
		bump(&p.choice[(pc>>2)&p.chMask], cp.LocalPred == taken)
	}
}

func bump(c *uint8, up bool) {
	if up {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// RecordMispredict counts a direction misprediction.
func (p *Predictor) RecordMispredict() { p.Stats.DirMispredicts++ }

// Restore rewinds the speculative local history to the checkpoint and
// shifts in the corrected outcome of the mispredicted branch.
func (p *Predictor) Restore(pc uint64, cp Checkpoint, actualTaken bool) {
	lRow := (pc >> 2) & p.lhtMask
	p.lht[lRow] = ((cp.LocalHist << 1) | uint16(b2u(actualTaken))) & p.histMask
}

// PredictTarget looks up the BTB. ok is false on a BTB miss, in which
// case a taken prediction cannot be followed and the front end must
// treat the branch as mispredicted-target.
func (p *Predictor) PredictTarget(pc uint64) (target uint64, ok bool) {
	e := p.btb[(pc>>2)&p.btbMask]
	if e.valid && e.tag == pc {
		return e.target, true
	}
	p.Stats.BTBMisses++
	return 0, false
}

// UpdateTarget installs the resolved target of a taken branch.
func (p *Predictor) UpdateTarget(pc, target uint64) {
	p.btb[(pc>>2)&p.btbMask] = btbEntry{tag: pc, target: target, valid: true}
}

// PushRAS records a call's return address.
func (p *Predictor) PushRAS(ret uint64) {
	p.rasTop = (p.rasTop + 1) % len(p.ras)
	p.ras[p.rasTop] = ret
}

// PopRAS predicts a return target.
func (p *Predictor) PopRAS() uint64 {
	v := p.ras[p.rasTop]
	p.rasTop = (p.rasTop - 1 + len(p.ras)) % len(p.ras)
	return v
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
