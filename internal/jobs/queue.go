package jobs

import "time"

// fairQueue is the pending-job queue: one FIFO per tenant, drained by
// round-robin. Each time the scheduling cursor reaches a tenant it pops
// one job and moves on — an idle tenant's turn costs nothing — so a
// single deep tenant cannot starve shallow ones: everyone else's jobs
// interleave at an equal share.
//
// fairQueue is not self-locking; the Manager's mutex guards it.
type fairQueue struct {
	tenants map[string]*tenantQueue
	ring    []*tenantQueue // round-robin order (tenant arrival order)
	cursor  int
	size    int
	// spare is the last tenant queue to drain, kept with its array for
	// the next tenant that arrives: with one tenant submitting at a
	// time, every job finds its queue drained.
	spare *tenantQueue
}

type tenantQueue struct {
	name string
	jobs []*job // FIFO: append at tail, pop at jobs[head]
	head int
}

func newFairQueue() *fairQueue {
	return &fairQueue{tenants: make(map[string]*tenantQueue)}
}

// push appends j to its tenant's FIFO.
func (q *fairQueue) push(j *job) {
	tq := q.tenants[j.view.Tenant]
	if tq == nil {
		tq, q.spare = q.spare, nil
		if tq == nil {
			tq = &tenantQueue{}
		}
		tq.name = j.view.Tenant
		q.tenants[tq.name] = tq
		q.ring = append(q.ring, tq)
	}
	if tq.head > 0 && len(tq.jobs) == cap(tq.jobs) {
		// Slide the pending jobs to the array start instead of growing
		// the array past the popped head slots.
		n := copy(tq.jobs, tq.jobs[tq.head:])
		clear(tq.jobs[n:])
		tq.jobs, tq.head = tq.jobs[:n], 0
	}
	tq.jobs = append(tq.jobs, j)
	q.size++
}

// pop removes and returns the next job by round-robin, or nil
// when the queue is empty. Tenants whose FIFO drains are dropped from
// the ring on the spot: tenant identity is client-supplied, so keeping
// idle tenants would let a stream of fresh tenant names grow the ring
// (and every pop's scan) without bound.
func (q *fairQueue) pop() *job {
	if q.size == 0 {
		return nil
	}
	for len(q.ring) > 0 {
		if q.cursor >= len(q.ring) {
			q.cursor = 0
		}
		tq := q.ring[q.cursor]
		if tq.head == len(tq.jobs) {
			q.dropAt(q.cursor)
			continue
		}
		j := tq.jobs[tq.head]
		tq.jobs[tq.head] = nil // release for GC
		tq.head++
		q.size--
		if tq.head == len(tq.jobs) {
			q.dropAt(q.cursor)
		} else {
			q.cursor++
		}
		return j
	}
	return nil
}

// dropAt unlinks the drained tenant at ring index i and keeps its queue
// as the spare.
func (q *fairQueue) dropAt(i int) {
	tq := q.ring[i]
	delete(q.tenants, tq.name)
	tq.jobs, tq.head = tq.jobs[:0], 0
	q.spare = tq
	q.ring = append(q.ring[:i], q.ring[i+1:]...)
	if q.cursor > i {
		q.cursor--
	}
}

// remove deletes a specific job from its tenant's FIFO (cancellation of
// a pending job). It reports whether the job was found.
func (q *fairQueue) remove(j *job) bool {
	tq := q.tenants[j.view.Tenant]
	if tq == nil {
		return false
	}
	for i, cand := range tq.jobs[tq.head:] {
		if cand != j {
			continue
		}
		last := len(tq.jobs) - 1
		copy(tq.jobs[tq.head+i:], tq.jobs[tq.head+i+1:])
		tq.jobs[last] = nil // release for GC
		tq.jobs = tq.jobs[:last]
		q.size--
		if tq.head == len(tq.jobs) {
			for ri, rtq := range q.ring {
				if rtq == tq {
					q.dropAt(ri)
					break
				}
			}
		}
		return true
	}
	return false
}

// oldest returns the earliest enqueue time across all pending jobs, and
// whether any job is pending. Retried jobs keep their original enqueue
// time, so the age reported is end-to-end client wait, not time since
// the last retry.
func (q *fairQueue) oldest() (time.Time, bool) {
	var min time.Time
	found := false
	for _, tq := range q.ring {
		for _, j := range tq.jobs[tq.head:] {
			if !found || j.view.Enqueued.Before(min) {
				min = j.view.Enqueued
				found = true
			}
		}
	}
	return min, found
}
