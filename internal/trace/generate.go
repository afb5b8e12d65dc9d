package trace

import (
	"fmt"
	"sync"
)

// Memory-layout bases for the synthetic address space. Regions are
// disjoint by construction.
const (
	codeBase    = 0x0040_0000
	heapBase    = 0x1000_0000 // streaming arrays
	pointerBase = 0x4000_0000 // pointer-chased structures
	stackBase   = 0x7FF0_0000
)

// block is one static basic block of the synthetic CFG.
type block struct {
	pc    uint64 // address of the first instruction
	ops   []Op   // static op sequence; last op is Branch
	taken int    // taken-successor block id
	next  int    // fall-through block id

	// Branch behaviour: periodic blocks produce a run pattern of
	// `takens` taken outcomes per `period` visits (locally predictable,
	// like loop and guard branches in real code); aperiodic blocks draw
	// Bernoulli(bias) outcomes (data-dependent branches).
	periodic       bool
	period, takens int
	visits         int
	bias           float64
}

// program is the generated static code for one profile.
type program struct {
	blocks []block
}

// buildProgram materializes the profile's synthetic CFG.
func buildProgram(p Profile, r *rng) *program {
	nb := p.CodeBlocks
	hot := int(float64(nb)*p.HotFrac + 0.5)
	if hot < 1 {
		hot = 1
	}
	// Non-branch op mix, normalized. The remainder of the named mix is
	// integer ALU work.
	type wop struct {
		op Op
		w  float64
	}
	named := []wop{
		{Load, p.LoadFrac}, {Store, p.StoreFrac},
		{IntMul, p.IntMulFrac}, {IntDiv, p.IntDivFrac},
		{FPALU, p.FPALUFrac}, {FPMul, p.FPMulFrac}, {FPDiv, p.FPDivFrac},
	}
	var namedSum float64
	for _, w := range named {
		namedSum += w.w
	}
	ialu := 1 - namedSum - p.BranchFrac
	if ialu < 0.05 {
		ialu = 0.05
	}
	mix := append(named, wop{IntALU, ialu})
	var total float64
	for _, w := range mix {
		total += w.w
	}
	drawOp := func() Op {
		u := r.float() * total
		for _, w := range mix {
			if u < w.w {
				return w.op
			}
			u -= w.w
		}
		return IntALU
	}

	prog := &program{blocks: make([]block, nb)}
	pc := uint64(codeBase)
	for i := 0; i < nb; i++ {
		l := p.BlockMin + r.intn(p.BlockMax-p.BlockMin+1)
		ops := make([]Op, l)
		for j := 0; j < l-1; j++ {
			ops[j] = drawOp()
		}
		ops[l-1] = Branch

		// Taken successor: usually within the hot region so execution
		// stays local; occasionally anywhere, pulling cold code in.
		var tgt int
		if r.float() < p.HotProb {
			tgt = r.intn(hot)
		} else {
			tgt = r.intn(nb)
		}
		b := block{pc: pc, ops: ops, taken: tgt, next: (i + 1) % nb, bias: clamp01(p.BranchBias + 0.2*(r.float()-0.5))}
		if i >= hot {
			// Blocks outside the hot region model colder code (error
			// paths, helper routines): fall-through biased, as compilers
			// lay out real cold code, so an untrained predictor is
			// usually right about them. They still behave periodically,
			// so when a program executes them often they train well.
			b.bias = clamp01(0.3 + 0.2*(r.float()-0.5))
		}
		if i >= hot || r.float() < p.PatternFrac {
			// Periodic run pattern: `takens` taken outcomes out of each
			// `period` visits, with bias·period duty cycle. Learnable
			// from per-branch local history.
			b.periodic = true
			b.period = 3 + r.intn(6) // 3..8
			b.takens = int(b.bias*float64(b.period) + 0.5)
			if b.takens < 1 {
				b.takens = 1
			}
			if b.takens >= b.period {
				b.takens = b.period - 1
			}
			b.visits = r.intn(b.period)
		}
		prog.blocks[i] = b
		pc += uint64(4 * l)
	}
	return prog
}

func clamp01(v float64) float64 {
	if v < 0.02 {
		return 0.02
	}
	if v > 0.98 {
		return 0.98
	}
	return v
}

// addrGen produces data addresses per the profile's pattern mix.
type addrGen struct {
	p        Profile
	r        *rng
	cursors  []uint64 // stream positions
	regions  []uint64 // stream region bases
	regSizes []uint64 // per-region footprints (geometric spread)
}

func newAddrGen(p Profile, r *rng) *addrGen {
	n := p.Streams
	if n < 1 {
		n = 1
	}
	g := &addrGen{p: p, r: r, cursors: make([]uint64, n), regions: make([]uint64, n), regSizes: make([]uint64, n)}
	// Region sizes grow geometrically (each ~1.6× the previous) and sum
	// to StreamBytes, so the fraction of streamed data that a cache of a
	// given capacity can hold changes gradually with capacity instead of
	// falling off a single cliff at StreamBytes.
	var weights float64
	w := 1.0
	for i := 0; i < n; i++ {
		weights += w
		w *= 1.6
	}
	base := heapBase
	w = 1.0
	for i := 0; i < n; i++ {
		sz := uint64(float64(p.StreamBytes) * w / weights)
		if sz < 4096 {
			sz = 4096
		}
		g.regSizes[i] = sz
		g.regions[i] = uint64(base)
		base += int(sz)
		w *= 1.6
	}
	return g
}

// next returns an effective address and whether it came from the
// pointer-chasing class (whose loads serialize).
func (g *addrGen) next() (addr uint64, pointer bool) {
	u := g.r.float()
	switch {
	case u < g.p.StackFrac:
		span := g.p.StackBytes
		if span < 8 {
			span = 8
		}
		return stackBase + uint64(g.r.intn(int(span)))&^7, false
	case u < g.p.StackFrac+g.p.PointerFrac:
		span := g.p.PointerBytes
		switch t := g.r.float(); {
		case t < g.p.PtrL1Prob:
			span = g.p.PtrL1Bytes
		case t < g.p.PtrL1Prob+g.p.PtrHotProb:
			span = g.p.PtrHotBytes
		}
		if span < 64 {
			span = 64
		}
		return pointerBase + (g.r.next()%span)&^7, true
	default:
		i := g.r.intn(len(g.cursors))
		stride := g.p.StreamStride
		if stride == 0 {
			stride = 8
		}
		a := g.regions[i] + g.cursors[i]
		g.cursors[i] = (g.cursors[i] + stride) % g.regSizes[i]
		return a, false
	}
}

// Generate expands the profile into a dynamic trace of n instructions.
// The same (profile, n, seed) always yields the identical trace.
func Generate(p Profile, n int, seed uint64) Trace {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	r := newRNG(seed ^ hashName(p.Name))
	prog := buildProgram(p, r)
	ag := newAddrGen(p, r)

	out := make(Trace, 0, n)
	cur := 0
	lastLoadIdx := -1
	var recentStores [8]uint64
	nStores := 0
	for len(out) < n {
		b := &prog.blocks[cur]
		for j, op := range b.ops {
			if len(out) >= n {
				break
			}
			in := Inst{PC: b.pc + uint64(4*j), Op: op}

			// Dependencies.
			dep := func() int32 {
				d := r.geometric(p.MeanDepDist)
				if d > 64 {
					d = 64
				}
				if d > len(out) {
					d = len(out)
				}
				return int32(d)
			}
			if len(out) > 0 {
				in.Dep1 = dep()
				if r.float() < p.SecondDepProb {
					in.Dep2 = dep()
				}
			}

			switch op {
			case Load, Store:
				addr, pointer := ag.next()
				in.Addr = addr
				if op == Load {
					if nStores > 0 && r.float() < p.StoreReuseProb {
						// Re-read a recently stored location
						// (spill/refill), enabling forwarding.
						k := nStores - 1 - r.intn(min(nStores, len(recentStores)))
						in.Addr = recentStores[k%len(recentStores)]
						pointer = false
					}
					dist := len(out) - lastLoadIdx
					if pointer && lastLoadIdx >= 0 && dist <= 64 && r.float() < p.ChaseDepProb {
						in.Dep1 = int32(dist) // serialized pointer chase
					}
					lastLoadIdx = len(out)
				} else {
					recentStores[nStores%len(recentStores)] = addr
					nStores++
				}
			case Branch:
				var taken bool
				if b.periodic {
					taken = b.visits%b.period < b.takens
					b.visits++
					if p.BranchNoise > 0 && r.float() < p.BranchNoise {
						taken = !taken
					}
				} else {
					taken = r.float() < b.bias
				}
				in.Taken = taken
				if taken {
					in.Target = prog.blocks[b.taken].pc
				} else {
					in.Target = prog.blocks[b.next].pc
				}
			}
			out = append(out, in)
		}
		// The block's terminating branch decides the successor; if the
		// trace ended mid-block the outer loop exits anyway.
		last := out[len(out)-1]
		if last.Op == Branch && last.Taken {
			cur = b.taken
		} else {
			cur = b.next
		}
	}
	return out
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

var (
	cacheMu sync.Mutex
	cached  = map[string]Trace{}
)

// Named generates the deterministic trace for a named benchmark profile
// at the given length. Nothing keeps it but the caller.
func Named(name string, n int) (Trace, error) {
	p, ok := ByName(name)
	if !ok {
		return nil, fmt.Errorf("trace: unknown benchmark %q", name)
	}
	return Generate(p, n, 1), nil
}

// Cached returns Named's trace, generating it on first use and keeping
// it for the life of the process.
func Cached(name string, n int) (Trace, error) {
	key := fmt.Sprintf("%s/%d", name, n)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if t, ok := cached[key]; ok {
		return t, nil
	}
	t, err := Named(name, n)
	if err != nil {
		return nil, err
	}
	cached[key] = t
	return t, nil
}
