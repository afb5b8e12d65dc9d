// Package trace provides the workload substrate: deterministic synthetic
// instruction traces standing in for the paper's SPEC CPU2000 MinneSPEC
// traces (which require the proprietary SPEC suite, IBM PowerPC
// binaries, and a tracer we do not have — see DESIGN.md, Substitutions).
//
// Each benchmark is described by a statistical Profile — instruction mix,
// dependency-distance distribution, control-flow structure and branch
// predictability, code footprint, and data footprints with stack /
// streaming / pointer-chasing access patterns. Generate expands a profile
// into a concrete dynamic instruction trace by simulating a walk over a
// synthetic control-flow graph. Generation is fully deterministic given
// (profile, length, seed).
package trace

import "fmt"

// Op is a dynamic instruction class.
type Op uint8

const (
	IntALU Op = iota
	IntMul
	IntDiv
	FPALU
	FPMul
	FPDiv
	Load
	Store
	Branch
	numOps
)

var opNames = [...]string{"ialu", "imul", "idiv", "fpalu", "fpmul", "fpdiv", "load", "store", "branch"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMem reports whether the op accesses data memory.
func (o Op) IsMem() bool { return o == Load || o == Store }

// Inst is one dynamic instruction, in 32 bytes. Addr serves both kinds
// of instruction that need an address: no instruction is both a memory
// op and a branch. The binary file format (WriteTo) keeps separate
// address and target slots, so a Branch's Addr is read from and written
// to the target slot.
type Inst struct {
	PC    uint64 // instruction address (4-byte instructions)
	Addr  uint64 // effective address of a Load/Store, or successor PC of a Branch
	Dep1  int32  // backward distance (dynamic instructions) to 1st producer; 0 = none
	Dep2  int32  // backward distance to 2nd producer; 0 = none
	Op    Op
	Taken bool // Branch outcome
}

// Trace is a dynamic instruction sequence.
type Trace []Inst

// Mix returns the fraction of instructions of each op class.
func (t Trace) Mix() map[Op]float64 {
	counts := make(map[Op]float64)
	for _, in := range t {
		counts[in.Op]++
	}
	for k := range counts {
		counts[k] /= float64(len(t))
	}
	return counts
}

// rng is a small, stable xorshift64* generator so traces do not depend
// on math/rand implementation details across Go releases.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// float returns a uniform float64 in [0,1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform int in [0,n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// geometric draws a geometric variate with the given mean (≥ 1).
func (r *rng) geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	n := 1
	for r.float() > p && n < 1<<12 {
		n++
	}
	return n
}
