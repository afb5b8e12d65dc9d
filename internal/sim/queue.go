package sim

import "slices"

// The engine's queues. Each keeps its backing array across cycles and,
// on a pooled machine, across runs (see reset), so a steady-state cycle
// and a steady-state run allocate nothing.

// farHorizon is the schedule distance, in cycles, at or beyond which an
// event counts as far. farBit marks such an event's order.
const (
	farHorizon = 1 << 15
	farBit     = 1 << 63
)

// event is a scheduled completion. Events fire in (at, order) order.
// order is the schedule sequence number, with farBit set on an event
// scheduled farHorizon or more cycles ahead: completions due in the same
// cycle fire near ones first, then far ones, each group in the order it
// was scheduled.
type event struct {
	at    uint64
	order uint64
	seq   uint64
	slot  int32
}

// eventQueue is a binary min-heap of events. It and readyHeap are
// written out per type: a generic heap would call its comparison through
// the instantiation's dictionary, on the engine's hottest path.
type eventQueue []event

func (q eventQueue) before(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].order < q[j].order
}

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.before(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h.before(r, m) {
			m = r
		}
		if !h.before(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return top
}

// readyItem is an instruction whose operands are all available.
type readyItem struct {
	seq  uint64
	slot int32
}

// readyHeap is a binary min-heap of ready instructions, oldest (lowest
// seq) first.
type readyHeap []readyItem

func (h *readyHeap) push(it readyItem) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].seq < q[i].seq {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *readyHeap) pop() readyItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q[r].seq < q[m].seq {
			m = r
		}
		if q[i].seq < q[m].seq {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	*h = q
	return top
}

// ring is a fixed-capacity FIFO queue.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// zeroed returns s resliced to n zero elements, reusing s's backing
// array when it holds n.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// at returns the i-th oldest element.
func (r *ring[T]) at(i int) *T {
	i += r.head
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		panic("sim: ring queue overflow")
	}
	*r.at(r.n) = v
	r.n++
}

// pop drops the oldest element.
func (r *ring[T]) pop() {
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}
