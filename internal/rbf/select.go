package rbf

import (
	"math"

	"predperf/internal/rtree"
)

// candidateBases turns every regression-tree node into a candidate basis:
// the basis center is the node's hyper-rectangle center and the radius is
// α times the rectangle's size (paper Eq. 8), floored at minRadius to
// keep deep, thin regions numerically usable.
func candidateBases(tr *rtree.Tree, alpha, minRadius float64) ([]Basis, []*rtree.Node) {
	nodes := tr.Nodes()
	bases := make([]Basis, len(nodes))
	for i, n := range nodes {
		r := n.Size()
		for k := range r {
			r[k] *= alpha
			if r[k] < minRadius {
				r[k] = minRadius
			}
		}
		bases[i] = Basis{Center: n.Center(), Radius: r}
		bases[i].Precompute()
	}
	return bases, nodes
}

// selectTreeOrdered runs Orr's tree-ordered subset selection (§2.5): it
// starts from the root center, then walks the tree breadth-first; at each
// non-terminal node it tries all 8 include/exclude combinations of the
// node's center and its two children's centers (all other selected
// centers held fixed) and keeps the combination with the lowest AICc.
// It returns the selected candidate indices, ascending, and the final
// fit. The selection is a membership slice, and each trial's index list
// is built in one reused slice, so a trial allocates nothing.
func selectTreeOrdered(gr *gram, nodes []*rtree.Node) (sel []int, aicc, sse float64, w []float64) {
	index := make(map[*rtree.Node]int, len(nodes))
	for i, n := range nodes {
		index[n] = i
	}
	in := make([]bool, len(nodes))
	list := make([]int, 0, len(nodes))
	// members lists the selection with the three trial memberships at
	// idx overridden by combo's bits, in ascending order.
	members := func(idx [3]int, combo int) []int {
		list = list[:0]
		for i, ok := range in {
			for b, j := range idx {
				if i == j {
					ok = combo&(1<<b) != 0
				}
			}
			if ok {
				list = append(list, i)
			}
		}
		return list
	}
	in[0] = true // the root's center: the center of the design space
	none := [3]int{-1, -1, -1}
	cur, curSSE, tw, ok := gr.aiccOf(members(none, 0))
	if !ok {
		in[0] = false
		cur, curSSE, tw, _ = gr.aiccOf(nil)
	}
	curW := append(make([]float64, 0, len(nodes)), tw...)
	bestW := make([]float64, 0, len(nodes))

	queue := []*rtree.Node{nodes[0]}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.Leaf() {
			continue
		}
		idx := [3]int{index[n], index[n.Left], index[n.Right]}
		bestCombo := -1
		bestAICc, bestSSE := cur, curSSE
		for combo := 0; combo < 8; combo++ {
			if in[idx[0]] == (combo&1 != 0) && in[idx[1]] == (combo&2 != 0) && in[idx[2]] == (combo&4 != 0) {
				continue // the current selection
			}
			a, s, tw, ok := gr.aiccOf(members(idx, combo))
			if !ok {
				continue
			}
			if a < bestAICc {
				bestAICc, bestSSE, bestCombo = a, s, combo
				bestW = append(bestW[:0], tw...)
			}
		}
		if bestCombo >= 0 {
			for b, j := range idx {
				in[j] = bestCombo&(1<<b) != 0
			}
			cur, curSSE = bestAICc, bestSSE
			curW, bestW = bestW, curW
		}
		queue = append(queue, n.Left, n.Right)
	}
	return members(none, 0), cur, curSSE, curW
}

// FitTree builds the candidate set from a fitted regression tree at a
// given α, runs subset selection, and returns the resulting network with
// its selection criterion value and training SSE.
func FitTree(tr *rtree.Tree, x [][]float64, y []float64, alpha, minRadius float64) (*Network, float64, float64) {
	bases, nodes := candidateBases(tr, alpha, minRadius)
	gr := newGram(bases, x, y)
	sel, aicc, sse, w := selectTreeOrdered(gr, nodes)
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
	if math.IsNaN(aicc) {
		aicc = math.Inf(1)
	}
	return net, aicc, sse
}
