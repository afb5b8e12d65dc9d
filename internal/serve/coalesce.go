package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"predperf/internal/design"
	"predperf/internal/obs"
)

// Request coalescing: the vectorized RBF evaluator (rbf.Compiled) is at
// its best when it scores many configurations in one blocked matrix
// pass, but independent clients send one configuration at a time. The
// coalescer turns that concurrency into batch shape: concurrent single
// /v1/predict requests enqueue onto a bounded admission queue, and a
// dispatcher goroutine drains up to maxSize configs or one window
// (whichever comes first) into a micro-batch, evaluates each model's
// share with one vectorized call, and fans the results back per
// request. Responses are bit-identical with coalescing on or off — the
// batch evaluator reproduces the scalar path exactly — so the window
// trades a bounded latency budget purely for throughput.
var (
	cCoalesced        = obs.NewCounter("serve.coalesced_requests")
	cCoalesceCanceled = obs.NewCounter("serve.coalesce_canceled")
	cCoalesceFlushes  = obs.NewCounterVec("serve.coalesce_flushes", "reason")
	// hCoalesceBatch records how many configs each flush carried:
	// powers of two from 1 to 1024.
	hCoalesceBatch = obs.NewHistogram("serve.coalesce_batch_size", obs.ExponentialBuckets(1, 2, 11))
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
	window  time.Duration
	maxSize int
	eval    func(*Entry, []design.Config) []prediction

	queue   chan coalesceReq
	stopped chan struct{} // closed when the dispatcher exits

	mu       sync.RWMutex // guards closed vs. enqueue
	closed   bool
	stopOnce sync.Once
}

// newCoalescer builds (and starts) a coalescer. window <= 0 returns a
// disabled coalescer: enabled() is false and predict must not be
// called.
func newCoalescer(window time.Duration, maxSize, queueCap int, eval func(*Entry, []design.Config) []prediction) *coalescer {
	c := &coalescer{window: window, maxSize: maxSize, eval: eval}
	if window <= 0 {
		return c
	}
	if c.maxSize <= 0 {
		c.maxSize = 64
	}
	if queueCap <= 0 {
		queueCap = 4096
	}
	c.queue = make(chan coalesceReq, queueCap)
	c.stopped = make(chan struct{})
	go c.dispatch()
	return c
}

func (c *coalescer) enabled() bool { return c != nil && c.queue != nil }

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
// a micro-batch, then collects companions until the batch is full
// ("size"), the window expires ("window"), or the queue closes during
// shutdown ("drain"), and flushes.
func (c *coalescer) dispatch() {
	defer close(c.stopped)
	for {
		first, ok := <-c.queue
		if !ok {
			return
		}
		batch := make([]coalesceReq, 1, c.maxSize)
		batch[0] = first
		reason := "window"
		timer := time.NewTimer(c.window)
	collect:
		for len(batch) < c.maxSize {
			select {
			case r, ok := <-c.queue:
				if !ok {
					reason = "drain"
					break collect
				}
				batch = append(batch, r)
			case <-timer.C:
				break collect
			}
		}
		timer.Stop()
		if len(batch) >= c.maxSize {
			reason = "size"
		}
		c.flush(batch, reason)
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
	if !c.enabled() {
		return
	}
	c.stopOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		close(c.queue)
		c.mu.Unlock()
	})
	<-c.stopped
}
