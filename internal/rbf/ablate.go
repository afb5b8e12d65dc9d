package rbf

import (
	"math"

	"predperf/internal/rtree"
)

// FitTreeAllCenters fits output weights over *every* regression-tree
// node center, skipping AICc subset selection. It is the ablation
// baseline for the selection strategy: same candidates, no model-
// complexity control.
func FitTreeAllCenters(tr *rtree.Tree, x [][]float64, y []float64, alpha, minRadius float64) (*Network, float64, float64) {
	bases, _ := candidateBases(tr, alpha, minRadius)
	// Cap candidates at p−2 so the least-squares problem stays
	// overdetermined (keep the shallowest nodes, which come first in
	// breadth-first order).
	if max := len(x) - 2; len(bases) > max {
		bases = bases[:max]
	}
	gr := newGram(bases, x, y)
	all := make([]int, len(bases))
	for i := range all {
		all[i] = i
	}
	aicc, sse, w, ok := gr.aiccOf(all)
	if !ok {
		return &Network{}, math.Inf(1), 0
	}
	net := &Network{Bases: bases, Weights: append([]float64(nil), w...)}
	return net, aicc, sse
}

// FitTreeGlobalRadius runs the usual tree-ordered subset selection but
// gives every candidate basis the same isotropic radius, ablating the
// radii = α × region-size rule of Eq. 8. The scalar radius itself is
// tuned over a grid by AICc, so the ablation compares against the best
// achievable fixed-radius model rather than a strawman.
func FitTreeGlobalRadius(tr *rtree.Tree, x [][]float64, y []float64, radiusGrid ...float64) (*Network, float64, float64) {
	if len(radiusGrid) == 0 {
		radiusGrid = []float64{0.25, 0.5, 1, 2, 4}
	}
	nodes := tr.Nodes()
	var bestNet *Network
	bestAICc, bestSSE := math.Inf(1), 0.0
	for _, radius := range radiusGrid {
		bases := make([]Basis, len(nodes))
		for i, n := range nodes {
			c := n.Center()
			r := make([]float64, len(c))
			for k := range r {
				r[k] = radius
			}
			bases[i] = Basis{Center: c, Radius: r}
		}
		gr := newGram(bases, x, y)
		sel, aicc, sse, w := selectTreeOrdered(gr, nodes)
		if aicc >= bestAICc {
			continue
		}
		net := &Network{}
		for i, bi := range sel {
			net.Bases = append(net.Bases, bases[bi])
			if w != nil {
				net.Weights = append(net.Weights, w[i])
			}
		}
		if net.Weights == nil {
			net.Weights = make([]float64, len(net.Bases))
		}
		bestNet, bestAICc, bestSSE = net, aicc, sse
	}
	if bestNet == nil {
		return &Network{}, math.Inf(1), 0
	}
	return bestNet, bestAICc, bestSSE
}

// FitTreeForwardSelection replaces the tree-ordered subset search with
// classical greedy forward selection over the same candidate set: start
// empty, repeatedly add the candidate whose inclusion lowers AICc the
// most, and stop when no addition improves it. Orr's paper compares the
// tree-ordered strategy against exactly this baseline.
func FitTreeForwardSelection(tr *rtree.Tree, x [][]float64, y []float64, alpha, minRadius float64) (*Network, float64, float64) {
	bases, _ := candidateBases(tr, alpha, minRadius)
	gr := newGram(bases, x, y)
	var sel []int
	in := make([]bool, len(bases))
	cur, curSSE, curW, ok := gr.aiccOf(nil)
	if !ok {
		return &Network{}, math.Inf(1), 0
	}
	// The winning trial's weights are copied out of the gram's scratch,
	// which the next trial overwrites.
	trial := make([]int, 0, len(bases))
	var bestW []float64
	for {
		bestIdx := -1
		bestAICc, bestSSE := cur, curSSE
		for c := range bases {
			if in[c] {
				continue
			}
			trial = append(append(trial[:0], sel...), c)
			a, s, w, ok := gr.aiccOf(trial)
			if ok && a < bestAICc {
				bestAICc, bestSSE, bestIdx = a, s, c
				bestW = append(bestW[:0], w...)
			}
		}
		if bestIdx < 0 {
			break
		}
		sel = append(sel, bestIdx)
		in[bestIdx] = true
		cur, curSSE = bestAICc, bestSSE
		curW, bestW = bestW, curW
	}
	net := &Network{}
	for i, bi := range sel {
		net.Bases = append(net.Bases, bases[bi])
		if curW != nil {
			net.Weights = append(net.Weights, curW[i])
		}
	}
	if net.Weights == nil {
		net.Weights = make([]float64, len(net.Bases))
	}
	return net, cur, curSSE
}
