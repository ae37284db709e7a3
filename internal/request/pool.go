package request

import (
	"fmt"
	"sort"
)

// Pool is the request manager's request pool (Figure 6): it holds waiting
// and running requests and exposes the views schedulers iterate over.
// Ordering is deterministic: FIFO by (arrival time, ID).
type Pool struct {
	waiting []*Request
	running []*Request
	done    []*Request
	// decoding and prefilling back the views of the same names.
	decoding   []*Request
	prefilling []*Request
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// OrderForReplay validates a trace and returns a sorted copy in the
// deterministic replay order shared by every driver: FIFO by (arrival
// time, ID). Single systems and clusters replay traces in this order, so
// single-replica results stay comparable to one-replica clusters.
func OrderForReplay(reqs []*Request) ([]*Request, error) {
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	ordered := append([]*Request(nil), reqs...)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].ArrivalTime != ordered[j].ArrivalTime {
			return ordered[i].ArrivalTime < ordered[j].ArrivalTime
		}
		return ordered[i].ID < ordered[j].ID
	})
	return ordered, nil
}

// Enqueue adds a newly arrived request to the waiting queue.
func (p *Pool) Enqueue(r *Request) {
	if r.Phase != Queued && r.Phase != Preempted {
		panic(fmt.Sprintf("request: enqueue of %d in phase %s", r.ID, r.Phase))
	}
	p.waiting = append(p.waiting, r)
	p.sortWaiting()
}

// sortWaiting keeps FIFO order by arrival then ID.
func (p *Pool) sortWaiting() {
	sort.SliceStable(p.waiting, func(i, j int) bool {
		a, b := p.waiting[i], p.waiting[j]
		if a.ArrivalTime != b.ArrivalTime {
			return a.ArrivalTime < b.ArrivalTime
		}
		return a.ID < b.ID
	})
}

// Waiting returns the waiting queue (callers must not mutate ordering).
func (p *Pool) Waiting() []*Request { return p.waiting }

// Running returns the admitted, unfinished requests.
func (p *Pool) Running() []*Request { return p.running }

// Done returns finished requests.
func (p *Pool) Done() []*Request { return p.done }

// Admit moves a waiting request into the running set. The caller is
// responsible for KV allocation.
func (p *Pool) Admit(r *Request, now float64) {
	idx := -1
	for i, w := range p.waiting {
		if w == r {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic(fmt.Sprintf("request: admit of %d not in waiting queue", r.ID))
	}
	p.waiting = append(p.waiting[:idx], p.waiting[idx+1:]...)
	if r.AdmitTime < 0 {
		r.AdmitTime = now
	}
	if r.Phase == Queued {
		r.Phase = Prefilling
	} else {
		r.Phase = Decoding // resumed from preemption
	}
	p.running = append(p.running, r)
}

// Remove takes a resident (running or waiting) request out of the pool
// without finishing it: the cluster driver migrates prefill-complete
// requests to a decode replica this way, and drain migration moves waiting
// requests off a draining replica. It neither re-enqueues nor touches the
// request's phase or preemption count — the caller owns the request's
// onward lifecycle.
func (p *Pool) Remove(r *Request) {
	for i, q := range p.running {
		if q == r {
			p.running = append(p.running[:i], p.running[i+1:]...)
			return
		}
	}
	for i, q := range p.waiting {
		if q == r {
			p.waiting = append(p.waiting[:i], p.waiting[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("request: remove of %d not resident", r.ID))
}

// Finish moves completed running requests into done, returning how many
// moved. Requests mark themselves Done in Commit.
func (p *Pool) Finish() int {
	moved := 0
	kept := p.running[:0]
	for _, r := range p.running {
		if r.Phase == Done {
			p.done = append(p.done, r)
			moved++
		} else {
			kept = append(kept, r)
		}
	}
	p.running = kept
	return moved
}

// AdoptDone appends an already-finished request directly to the done list
// without it ever having waited or run here: hedged re-dispatch resolves this
// way when the duplicate wins — the original adopts the winner's outcome and
// retires through the winning replica's pool, so the serve driver derives its
// lifecycle events at that replica's next iteration boundary.
func (p *Pool) AdoptDone(r *Request) {
	if r.Phase != Done {
		panic(fmt.Sprintf("request: adopt-done of %d in phase %s", r.ID, r.Phase))
	}
	p.done = append(p.done, r)
}

// NumWaiting returns the waiting-queue length.
func (p *Pool) NumWaiting() int { return len(p.waiting) }

// NumRunning returns the running-set size.
func (p *Pool) NumRunning() int { return len(p.running) }

// DecodingRequests returns running requests currently in the decode phase.
// The slice is the pool's own buffer, refilled by the next
// DecodingRequests call: read it before then, and do not keep it.
func (p *Pool) DecodingRequests() []*Request {
	p.decoding = p.phaseView(p.decoding, Decoding)
	return p.decoding[:len(p.decoding):len(p.decoding)]
}

// PrefillingRequests returns running requests still prefilling. The slice
// is the pool's own buffer, refilled by the next PrefillingRequests call:
// read it before then, and do not keep it.
func (p *Pool) PrefillingRequests() []*Request {
	p.prefilling = p.phaseView(p.prefilling, Prefilling)
	return p.prefilling[:len(p.prefilling):len(p.prefilling)]
}

// phaseView refills buf with the running requests in phase ph. The views
// return it capacity-capped, so a caller's append copies instead of
// writing into the buffer.
func (p *Pool) phaseView(buf []*Request, ph Phase) []*Request {
	buf = buf[:0]
	for _, r := range p.running {
		if r.Phase == ph {
			buf = append(buf, r)
		}
	}
	return buf
}
