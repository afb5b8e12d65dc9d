package trace

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAllProfilesValid(t *testing.T) {
	names := Names()
	if len(names) != 8 {
		t.Fatalf("have %d benchmark profiles, want 8", len(names))
	}
	for _, name := range names {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("missing profile %s", name)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("mcf")
	a := Generate(p, 5000, 1)
	b := Generate(p, 5000, 1)
	if len(a) != 5000 || len(b) != 5000 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := Generate(p, 5000, 2)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestMixApproximatesProfile(t *testing.T) {
	for _, name := range Names() {
		p, _ := ByName(name)
		tr := Generate(p, 40000, 1)
		mix := tr.Mix()
		// One branch per block, so branch fraction ≈ 2/(BlockMin+BlockMax).
		wantBr := 2.0 / float64(p.BlockMin+p.BlockMax)
		if math.Abs(mix[Branch]-wantBr) > 0.06 {
			t.Errorf("%s: branch frac %v, want ≈%v", name, mix[Branch], wantBr)
		}
		// Non-branch ops are drawn from the named mix plus an IALU
		// remainder, then scaled by the non-branch share. Hot blocks
		// dominate dynamically, so allow generous sampling slack.
		named := p.LoadFrac + p.StoreFrac + p.IntMulFrac + p.IntDivFrac +
			p.FPALUFrac + p.FPMulFrac + p.FPDivFrac
		ialu := 1 - named - p.BranchFrac
		if ialu < 0.05 {
			ialu = 0.05
		}
		tot := named + ialu
		wantLoad := (1 - wantBr) * p.LoadFrac / tot
		wantStore := (1 - wantBr) * p.StoreFrac / tot
		if math.Abs(mix[Load]-wantLoad) > 0.07 {
			t.Errorf("%s: load frac %v, want ≈%v", name, mix[Load], wantLoad)
		}
		if math.Abs(mix[Store]-wantStore) > 0.05 {
			t.Errorf("%s: store frac %v, want ≈%v", name, mix[Store], wantStore)
		}
	}
}

func TestBranchTargetsAreBlockStarts(t *testing.T) {
	p, _ := ByName("twolf")
	tr := Generate(p, 20000, 1)
	// Collect block start PCs (targets must be among instruction PCs).
	pcs := map[uint64]bool{}
	for _, in := range tr {
		pcs[in.PC] = true
	}
	for i, in := range tr {
		if in.Op != Branch {
			continue
		}
		if !pcs[in.Addr] {
			t.Fatalf("inst %d: branch target %#x never executed", i, in.Addr)
		}
	}
}

func TestControlFlowConsistency(t *testing.T) {
	// After a branch, the next instruction's PC must equal the branch's
	// Addr, the successor it chose, taken or not.
	p, _ := ByName("crafty")
	tr := Generate(p, 20000, 1)
	for i := 0; i < len(tr)-1; i++ {
		if tr[i].Op != Branch {
			// Sequential flow inside a block.
			if tr[i+1].PC != tr[i].PC+4 {
				t.Fatalf("inst %d: sequential PC %#x → %#x", i, tr[i].PC, tr[i+1].PC)
			}
			continue
		}
		if tr[i+1].PC != tr[i].Addr {
			t.Fatalf("inst %d: branch to %#x but next PC %#x", i, tr[i].Addr, tr[i+1].PC)
		}
	}
}

func TestDependencyDistancesValid(t *testing.T) {
	for _, name := range Names() {
		p, _ := ByName(name)
		tr := Generate(p, 20000, 1)
		for i, in := range tr {
			if in.Dep1 < 0 || int(in.Dep1) > i {
				t.Fatalf("%s inst %d: dep1 %d out of range", name, i, in.Dep1)
			}
			if in.Dep2 < 0 || int(in.Dep2) > i {
				t.Fatalf("%s inst %d: dep2 %d out of range", name, i, in.Dep2)
			}
		}
	}
}

func TestAddressRegionsDisjoint(t *testing.T) {
	p, _ := ByName("mcf")
	tr := Generate(p, 30000, 1)
	for i, in := range tr {
		if !in.Op.IsMem() {
			continue
		}
		a := in.Addr
		inStack := a >= stackBase && a < stackBase+(64<<10)
		inHeap := a >= heapBase && a < pointerBase
		inPtr := a >= pointerBase && a < stackBase
		if !inStack && !inHeap && !inPtr {
			t.Fatalf("inst %d: address %#x outside known regions", i, a)
		}
	}
}

func TestMcfHasLargerDataFootprintThanCrafty(t *testing.T) {
	foot := func(name string) int {
		p, _ := ByName(name)
		tr := Generate(p, 50000, 1)
		lines := map[uint64]bool{}
		for _, in := range tr {
			if in.Op.IsMem() {
				lines[in.Addr>>6] = true
			}
		}
		return len(lines)
	}
	m, c := foot("mcf"), foot("crafty")
	if m <= 2*c {
		t.Fatalf("mcf footprint %d lines not ≫ crafty %d", m, c)
	}
}

func TestVortexHasLargerCodeFootprintThanMcf(t *testing.T) {
	code := func(name string) int {
		p, _ := ByName(name)
		tr := Generate(p, 50000, 1)
		lines := map[uint64]bool{}
		for _, in := range tr {
			lines[in.PC>>6] = true
		}
		return len(lines)
	}
	v, m := code("vortex"), code("mcf")
	if v <= 4*m {
		t.Fatalf("vortex code footprint %d lines not ≫ mcf %d", v, m)
	}
}

func TestPointerChaseDependencies(t *testing.T) {
	// mcf: a healthy share of loads must depend on a previous load.
	p, _ := ByName("mcf")
	tr := Generate(p, 30000, 1)
	loads, chained := 0, 0
	isLoad := make([]bool, len(tr))
	for i, in := range tr {
		isLoad[i] = in.Op == Load
	}
	for i, in := range tr {
		if in.Op != Load {
			continue
		}
		loads++
		if in.Dep1 > 0 && isLoad[i-int(in.Dep1)] {
			chained++
		}
	}
	if loads == 0 || float64(chained)/float64(loads) < 0.25 {
		t.Fatalf("mcf load→load chains: %d/%d too few", chained, loads)
	}
}

func TestCachedMemoizes(t *testing.T) {
	a, err := Cached("equake", 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cached("equake", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("Cached did not memoize")
	}
	if _, err := Cached("nosuch", 100); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestQuickGenerateWellFormed(t *testing.T) {
	names := Names()
	f := func(seed int64, pick uint8) bool {
		p, _ := ByName(names[int(pick)%len(names)])
		n := 2000
		tr := Generate(p, n, uint64(seed))
		if len(tr) != n {
			return false
		}
		for i, in := range tr {
			if in.Op >= numOps {
				return false
			}
			if in.Op.IsMem() && in.Addr == 0 {
				return false
			}
			if in.Op == Branch && in.Addr == 0 {
				return false
			}
			if int(in.Dep1) > i || int(in.Dep2) > i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestExtraProfilesValidAndRunnable(t *testing.T) {
	extras := ExtraNames()
	if len(extras) != 4 {
		t.Fatalf("extra profiles: %v", extras)
	}
	for _, name := range extras {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("missing extra profile %s", name)
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		tr := Generate(p, 5000, 1)
		if len(tr) != 5000 {
			t.Fatalf("%s: generated %d", name, len(tr))
		}
	}
	// gcc has the biggest code footprint of the whole suite.
	code := func(name string) int {
		p, _ := ByName(name)
		tr := Generate(p, 40000, 1)
		lines := map[uint64]bool{}
		for _, in := range tr {
			lines[in.PC>>6] = true
		}
		return len(lines)
	}
	if code("gcc") <= code("vortex") {
		t.Fatalf("gcc code footprint %d not above vortex %d", code("gcc"), code("vortex"))
	}
}
