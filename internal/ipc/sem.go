package ipc

import (
	"errors"
	"fmt"
	"time"

	"mirage/internal/mem"
	"mirage/internal/sched"
	"mirage/internal/vaxmodel"
)

// System V semaphores, distributed the way Locus distributed them
// before Mirage existed (the [FLEI86] work the paper builds on): each
// semaphore set lives at its creating site; operations from other
// sites are short-message RPCs to that home site, which serializes
// them and parks blocked P operations until a V arrives. §5.1's
// motivating example — two critical sections under different
// semaphores touching different data on the same page — runs on this
// plus the DSM (see the package tests).

// SemID identifies a semaphore set.
type SemID int32

// Errors for semaphore operations.
var (
	ErrSemNotFound = errors.New("ipc: no such semaphore set (ENOENT)")
	ErrSemExists   = errors.New("ipc: semaphore set exists (EEXIST)")
	ErrSemRange    = errors.New("ipc: semaphore index out of range (EINVAL)")
)

// semWaiter is one parked P operation.
type semWaiter struct {
	need int
	task *sched.Task
}

// semSet is one semaphore set, owned by its home site.
type semSet struct {
	id      SemID
	key     mem.Key
	home    int
	vals    []int
	waiters [][]semWaiter // per semaphore index
}

// Semget locates or creates a semaphore set of n semaphores
// (System V semget). The creating site becomes the set's home.
func (p *Proc) Semget(key mem.Key, n int, flags int) (SemID, error) {
	c := p.site.c
	if s, ok := c.semsByKey[key]; ok && key != mem.IPCPrivate {
		if flags&mem.Create != 0 && flags&mem.Exclusive != 0 {
			return 0, ErrSemExists
		}
		return s.id, nil
	}
	if flags&mem.Create == 0 {
		return 0, ErrSemNotFound
	}
	if n <= 0 {
		return 0, fmt.Errorf("%w: %d semaphores", ErrSemRange, n)
	}
	s := &semSet{
		id:      c.nextSem,
		key:     key,
		home:    p.site.id,
		vals:    make([]int, n),
		waiters: make([][]semWaiter, n),
	}
	c.nextSem++
	c.sems[s.id] = s
	if key != mem.IPCPrivate {
		c.semsByKey[key] = s
	}
	return s.id, nil
}

// semRPC charges the communication and service costs of one semaphore
// operation issued by p against the set's home site, then runs fn in
// kernel context at the home site. For a colocated caller only the
// local service cost applies.
func (p *Proc) semRPC(s *semSet, fn func()) {
	if s.home == p.site.id {
		p.site.CPU.KernelWork(vaxmodel.LocalFaultService, fn)
		return
	}
	// Remote: a short request to the home site; the reply wakes the
	// caller. Model the elapsed request leg, then home service.
	home := p.site.c.Site(s.home)
	p.site.c.K.After(2*vaxmodel.MsgSideElapsed(0), func() {
		home.CPU.KernelWork(vaxmodel.ServerRequestService, fn)
	})
}

// semReplyDelay is the elapsed time of the home site's short reply.
func (p *Proc) semReplyDelay(s *semSet) time.Duration {
	if s.home == p.site.id {
		return 0
	}
	return 2 * vaxmodel.MsgSideElapsed(0)
}

// SemOp applies delta to semaphore idx of the set (System V semop with
// one sembuf): delta < 0 is a P that blocks until the value can absorb
// it; delta > 0 is a V that wakes parked waiters; delta == 0 blocks
// until the value is zero (the "wait-for-zero" form).
func (p *Proc) SemOp(id SemID, idx, delta int) error {
	s, ok := p.site.c.sems[id]
	if !ok {
		return ErrSemNotFound
	}
	if idx < 0 || idx >= len(s.vals) {
		return ErrSemRange
	}
	done := false
	p.semRPC(s, func() {
		switch {
		case delta > 0:
			s.vals[idx] += delta
			p.site.c.semWake(s, idx)
			done = true
		case delta < 0 && s.vals[idx] >= -delta:
			s.vals[idx] += delta
			// A decrement can satisfy wait-for-zero waiters.
			p.site.c.semWake(s, idx)
			done = true
		case delta == 0 && s.vals[idx] == 0:
			done = true
		default:
			// Park at the home site until satisfiable.
			s.waiters[idx] = append(s.waiters[idx], semWaiter{need: -delta, task: p.task})
		}
		if done {
			p.task.Wakeup()
		}
	})
	// Woken by the op itself or by a V that satisfied it (semWake
	// already applied the decrement).
	p.task.Block()
	// Ride the reply leg home.
	if d := p.semReplyDelay(s); d > 0 {
		p.task.Sleep(d)
	}
	return nil
}

// semWake satisfies parked waiters in FIFO order while values allow.
func (c *Cluster) semWake(s *semSet, idx int) {
	q := s.waiters[idx]
	for len(q) > 0 {
		w := q[0]
		if w.need == 0 {
			if s.vals[idx] != 0 {
				break
			}
		} else {
			if s.vals[idx] < w.need {
				break
			}
			s.vals[idx] -= w.need
		}
		q = q[1:]
		s.waiters[idx] = q
		w.task.Wakeup()
	}
	s.waiters[idx] = q
}

// SemGetVal returns the current value of semaphore idx.
func (p *Proc) SemGetVal(id SemID, idx int) (int, error) {
	s, ok := p.site.c.sems[id]
	if !ok {
		return 0, ErrSemNotFound
	}
	if idx < 0 || idx >= len(s.vals) {
		return 0, ErrSemRange
	}
	return s.vals[idx], nil
}

// SemSetVal sets semaphore idx (semctl SETVAL), waking waiters the new
// value satisfies.
func (p *Proc) SemSetVal(id SemID, idx, val int) error {
	s, ok := p.site.c.sems[id]
	if !ok {
		return ErrSemNotFound
	}
	if idx < 0 || idx >= len(s.vals) || val < 0 {
		return ErrSemRange
	}
	p.semRPC(s, func() {
		s.vals[idx] = val
		p.site.c.semWake(s, idx)
		p.task.Wakeup()
	})
	p.task.Block()
	if d := p.semReplyDelay(s); d > 0 {
		p.task.Sleep(d)
	}
	return nil
}

// SemRemove destroys a semaphore set (semctl IPC_RMID). Parked waiters
// are woken; their operations complete as no-ops.
func (p *Proc) SemRemove(id SemID) error {
	s, ok := p.site.c.sems[id]
	if !ok {
		return ErrSemNotFound
	}
	delete(p.site.c.sems, id)
	delete(p.site.c.semsByKey, s.key)
	for i := range s.waiters {
		for _, w := range s.waiters[i] {
			w.task.Wakeup()
		}
		s.waiters[i] = nil
	}
	return nil
}
