package serve

import (
	"context"
	"errors"
	"sync"

	"predperf/internal/design"
	"predperf/internal/obs"
)

// Request coalescing: the vectorized RBF evaluator (rbf.Compiled) is at
// its best when it scores many configurations in one blocked matrix
// pass, but independent clients send one configuration at a time. The
// coalescer turns that concurrency into batch shape without a timer:
// every single /v1/predict request enqueues onto a bounded admission
// queue, and one dispatcher goroutine blocks for the first request,
// takes whatever else is already queued (up to coalesceMax), and
// flushes at once. Requests that arrive during a flush form the next
// batch, as in group commit, so batches grow with concurrency and a
// lone request never waits for a companion. Each model's share of a
// micro-batch is scored with one vectorized call, and the results fan
// back per request, bit-identical to evaluating each alone.
var (
	cCoalesced        = obs.NewCounter("serve.coalesced_requests")
	cCoalesceCanceled = obs.NewCounter("serve.coalesce_canceled")
	cCoalesceFlushes  = obs.NewCounterVec("serve.coalesce_flushes", "reason")
	// hCoalesceBatch records how many configs each flush carried:
	// powers of two from 1 to 1024.
	hCoalesceBatch = obs.NewHistogram("serve.coalesce_batch_size", obs.ExponentialBuckets(1, 2, 11))
)

const (
	// coalesceMax bounds the configurations one flush takes from the
	// queue; the rest wait for the next flush.
	coalesceMax = 64
	// coalesceQueue bounds the admission queue; a full queue answers a
	// structured 503 (coalesce_queue_full) at once instead of blocking
	// the handler toward its deadline.
	coalesceQueue = 4096
)

// ErrCoalesceQueueFull is returned (and mapped to a structured 503,
// code "coalesce_queue_full") when the admission queue is at capacity:
// the server is over-committed and the client should back off and
// retry, rather than silently occupying a handler until its deadline.
var ErrCoalesceQueueFull = errors.New("serve: coalescer admission queue is full")

// ErrCoalesceStopped is returned for requests that arrive after the
// coalescer began shutting down.
var ErrCoalesceStopped = errors.New("serve: coalescer is stopped")

// coalesceReq is one queued single prediction.
type coalesceReq struct {
	ctx   context.Context
	entry *Entry
	cfg   design.Config
	done  chan prediction // buffered(1): the dispatcher's send never blocks
}

// coalescer owns the admission queue and the dispatcher goroutine.
// eval scores one model's share of a micro-batch (the server wires in
// predictBatch, so the cache and shadow monitor apply per config
// exactly as on the direct path).
type coalescer struct {
	maxSize int
	eval    func(*Entry, []design.Config) []prediction

	queue   chan coalesceReq
	stopped chan struct{} // closed when the dispatcher exits

	mu       sync.RWMutex // guards closed vs. enqueue
	closed   bool
	stopOnce sync.Once
}

// newCoalescer builds (and starts) a coalescer that flushes at most
// maxSize configurations at a time and admits queueCap waiting ones
// (the server passes coalesceMax and coalesceQueue).
func newCoalescer(maxSize, queueCap int, eval func(*Entry, []design.Config) []prediction) *coalescer {
	c := &coalescer{
		maxSize: maxSize,
		eval:    eval,
		queue:   make(chan coalesceReq, queueCap),
		stopped: make(chan struct{}),
	}
	go c.dispatch()
	return c
}

// predict enqueues one configuration and blocks until its micro-batch
// has been evaluated. It fails fast — never waiting out the request
// deadline — when the queue is full (ErrCoalesceQueueFull) or the
// coalescer is shutting down (ErrCoalesceStopped), and returns the
// context's error if the caller gives up while queued.
func (c *coalescer) predict(ctx context.Context, e *Entry, cfg design.Config) (prediction, error) {
	req := coalesceReq{ctx: ctx, entry: e, cfg: cfg, done: make(chan prediction, 1)}
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return prediction{}, ErrCoalesceStopped
	}
	select {
	case c.queue <- req:
		c.mu.RUnlock()
	default:
		c.mu.RUnlock()
		return prediction{}, ErrCoalesceQueueFull
	}
	select {
	case p := <-req.done:
		return p, nil
	case <-ctx.Done():
		// The dispatcher notices the dead context and skips the work;
		// if the flush already ran, the buffered done send is simply
		// never read.
		return prediction{}, ctx.Err()
	}
}

// dispatch is the single consumer: it blocks for the first request of
// a micro-batch, then takes only what is already queued, and flushes
// when the queue is empty ("idle"), the batch is full ("size"), or the
// queue closed during shutdown ("drain"). Every flush reuses one batch
// slice, cleared afterwards so an idle dispatcher holds no request's
// context or entry.
func (c *coalescer) dispatch() {
	defer close(c.stopped)
	batch := make([]coalesceReq, 0, c.maxSize)
	for {
		first, ok := <-c.queue
		if !ok {
			return
		}
		batch = append(batch[:0], first)
		reason := "size"
	collect:
		for len(batch) < c.maxSize {
			select {
			case r, ok := <-c.queue:
				if !ok {
					reason = "drain"
					break collect
				}
				batch = append(batch, r)
			default:
				reason = "idle"
				break collect
			}
		}
		c.flush(batch, reason)
		clear(batch)
		if reason == "drain" {
			return
		}
	}
}

// flush groups a micro-batch by model entry — one vectorized
// evaluation per model keeps models isolated — and fans each result
// back to its requester. Requests whose context died while queued are
// skipped (their work would be discarded anyway).
func (c *coalescer) flush(batch []coalesceReq, reason string) {
	cCoalesceFlushes.With(reason).Inc()
	hCoalesceBatch.Observe(float64(len(batch)))
	groups := make(map[*Entry][]int)
	var order []*Entry
	for i, r := range batch {
		if r.ctx.Err() != nil {
			cCoalesceCanceled.Inc()
			continue
		}
		if _, seen := groups[r.entry]; !seen {
			order = append(order, r.entry)
		}
		groups[r.entry] = append(groups[r.entry], i)
	}
	for _, e := range order {
		idx := groups[e]
		cfgs := make([]design.Config, len(idx))
		for a, i := range idx {
			cfgs[a] = batch[i].cfg
		}
		preds := c.eval(e, cfgs)
		// Counted before the fan-out, so a requester that has its answer
		// also sees it counted.
		cCoalesced.Add(int64(len(idx)))
		for a, i := range idx {
			batch[i].done <- preds[a]
		}
	}
}

// stop refuses new requests, lets the dispatcher drain and evaluate
// everything already queued, and blocks until it has exited. Call
// after the HTTP side has drained.
func (c *coalescer) stop() {
	c.stopOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		close(c.queue)
		c.mu.Unlock()
	})
	<-c.stopped
}
