// Package ipc assembles the simulated Mirage cluster and exposes the
// System V shared-memory interface to simulated processes (paper §2.2,
// §3.0 "Transparent Access": the same calls work whether the segment's
// pages are local or remote).
//
// A Cluster owns one discrete-event kernel, a simulated Ethernet, one
// CPU and one protocol Engine per site, and the cluster-wide segment
// registry. Simulated processes (Proc) run on a site's CPU and use
// Shmget/Shmat/Shmdt plus attached-segment accessors; accesses check
// the MMU and, on a fault, invoke the protocol engine and sleep until
// the page state changes — the paper's "standard way UNIX tasks await
// the completion of an I/O operation" (§6.1).
package ipc

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"mirage/internal/chaos"
	"mirage/internal/check"
	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/mmu"
	"mirage/internal/netsim"
	"mirage/internal/obs"
	"mirage/internal/sched"
	"mirage/internal/sim"
	"mirage/internal/vaxmodel"
)

// DSM is the contract a distributed shared memory engine fulfills to
// plug into the simulated cluster. The Mirage engine (internal/core)
// is the default; the Li/Hudak-style baseline (internal/ivy) is an
// alternative used by the comparison benches.
type DSM interface {
	CreateSegment(meta *mem.Segment)
	AttachSegment(meta *mem.Segment)
	DestroySegment(id int32)
	ReleaseSegment(id int32)
	// Seg is the site's page table for a segment, nil if the segment is
	// not attached here: an access checks and holds its page there
	// (mmu.Seg.Hold), and faults when that refuses. It is one table from
	// the attach until the segment is destroyed, and closed for good
	// then.
	Seg(id int32) *mmu.Seg
	Fault(seg, page int32, write bool, pid int32, wake func())
	// FaultError takes (returns and clears) the pending degraded-grant
	// error for a page: non-nil means a fault on the page was failed
	// back instead of served, and the woken access should surface the
	// error. Engines without a failure model always return nil.
	FaultError(seg, page int32) error
	// RecordOp emits a per-access op event (offset, length, content
	// digest) for the coherence checker; a no-op pointer test when
	// tracing is off.
	RecordOp(seg, page int32, off int, write bool, b []byte)
	Deliver(payload any)
}

// Errors returned by segment accessors.
var (
	ErrDetached = mem.ErrDetached
	ErrBounds   = mem.ErrBounds
	ErrReadOnly = mem.ErrReadOnly
)

// Config parameterizes a cluster. Zero values take paper defaults; the
// page size, the largest segment and the scheduler are the paper's.
type Config struct {
	Delta  time.Duration // default Δ for new segments
	Engine core.Options  // protocol options (policy, tracer, tuner)

	// Chaos, when set, injects the fault plan into the simulated
	// network, and brings the reliability layer.
	Chaos *chaos.Plan

	// NewDSM, when set, replaces the Mirage engine at every site (used
	// to run the IVY baseline on the identical substrate). Sites built
	// this way have a nil Eng field.
	NewDSM func(env core.Env) DSM
}

// Cluster is a simulated Mirage network.
type Cluster struct {
	K        *sim.Kernel
	Net      *netsim.Network
	Registry *mem.Registry
	Chaos    *chaos.Injector // non-nil when Config.Chaos was set
	sites    []*Site

	// System V semaphore sets (see sem.go).
	sems      map[SemID]*semSet
	semsByKey map[mem.Key]*semSet
	nextSem   SemID

	// FaultLatency records, for every access that faulted, the time
	// from the first fault to the access completing (§9.0-style
	// observability; printed by cmd/miragesim). It is the registry's
	// fault_latency_ns when Config.Engine.Obs carries one, a histogram
	// of its own otherwise.
	FaultLatency *obs.Hist

	// Obs is Config.Engine.Obs as the sites report to it: the same
	// registry and trace buffer, its tracer wrapped in the event-order
	// check when it records a trace (nil when Config.Engine.Obs was).
	Obs *obs.Obs

	order    *check.EventOrder // nil when nothing records a trace
	checkCfg check.Config      // derived once the config is resolved
}

// Site is one machine.
type Site struct {
	c   *Cluster
	id  int
	CPU *sched.CPU
	Eng *core.Engine // the Mirage engine, nil when a custom DSM is used
	DSM DSM
}

// env adapts a Site to core.Env.
type env struct{ s *Site }

func (e env) Site() int          { return e.s.id }
func (e env) Now() time.Duration { return e.s.c.K.Now().Duration() }

func (e env) After(d time.Duration, fn func()) func() {
	t := e.s.c.K.After(d, fn)
	return func() { t.Cancel() }
}

func (e env) Send(to int, m core.NetMsg) {
	e.s.c.Net.Send(netsim.Message{
		From:    netsim.SiteID(e.s.id),
		To:      netsim.SiteID(to),
		Size:    m.Size(),
		Payload: any(m),
	})
}

func (e env) Exec(cost time.Duration, fn func()) {
	e.s.CPU.KernelWork(cost, fn)
}

// NewCluster builds an n-site cluster.
func NewCluster(n int, cfg Config) *Cluster {
	// The option contract is ForCluster's (it also brings each layer's
	// base); a simulated cluster that breaks it is a bug in the
	// experiment that built it.
	eng, err := cfg.Engine.ForCluster(n, cfg.Delta, cfg.Chaos != nil)
	if cerr := cfg.Chaos.CheckSites(n); err == nil && cerr != nil {
		err = fmt.Errorf("%w: %v", core.ErrInvalidOptions, cerr)
	}
	if err != nil {
		panic(fmt.Errorf("ipc: NewCluster: %w", err))
	}
	cfg.Engine = eng
	c := &Cluster{
		K:            sim.NewKernel(),
		Registry:     mem.NewRegistry(vaxmodel.PageSize, cfg.Delta, vaxmodel.MaxSegmentBytes),
		sems:         make(map[SemID]*semSet),
		semsByKey:    make(map[mem.Key]*semSet),
		nextSem:      1,
		FaultLatency: new(obs.Hist),
		checkCfg:     check.ConfigFor(eng, cfg.Delta),
	}
	if o := cfg.Engine.Obs; o != nil && o.Metrics != nil {
		c.FaultLatency = o.Metrics.Hist(obs.HFaultLatency)
	}
	if o := cfg.Engine.Obs; o.Buffer() != nil {
		// Record through the page-event-order check (DESIGN.md §17): it
		// reads a site's page word as the site traces the page's state,
		// which only a simulated run lets it do.
		c.order = check.NewEventOrder(o.Buffer(), func(site int, seg int32) *mmu.Seg {
			return c.sites[site].DSM.Seg(seg)
		})
		wrapped := *o
		wrapped.Tracer = c.order
		cfg.Engine.Obs = &wrapped
	}
	c.Obs = cfg.Engine.Obs
	c.Net = netsim.New(c.K, n)
	c.Net.Obs = cfg.Engine.Obs
	if cfg.Chaos != nil {
		c.Chaos = chaos.New(*cfg.Chaos)
		c.Chaos.SetObs(cfg.Engine.Obs)
		chaos.WrapNetwork(c.Net, c.Chaos, func() time.Duration { return c.K.Now().Duration() })
	}
	for i := 0; i < n; i++ {
		s := &Site{c: c, id: i, CPU: sched.New(c.K)}
		if cfg.NewDSM != nil {
			s.DSM = cfg.NewDSM(env{s})
		} else {
			s.Eng = core.New(env{s}, cfg.Engine)
			s.DSM = s.Eng
		}
		c.sites = append(c.sites, s)
		site := s
		c.Net.Bind(netsim.SiteID(i), func(m netsim.Message) {
			site.DSM.Deliver(m.Payload)
		})
	}
	return c
}

// Sites returns the number of sites.
func (c *Cluster) Sites() int { return len(c.sites) }

// Site returns site i.
func (c *Cluster) Site(i int) *Site { return c.sites[i] }

// Run drains the simulation (until no process is runnable and no event
// pending).
func (c *Cluster) Run() { c.K.Run() }

// RunFor advances virtual time by d.
func (c *Cluster) RunFor(d time.Duration) { c.K.RunFor(d) }

// CheckConfig is the history checker's configuration for the cluster's
// trace: check.ConfigFor of its resolved stack and the segments' Δ.
func (c *Cluster) CheckConfig() check.Config { return c.checkCfg }

// VerifyTrace checks the run against the coherence invariants
// (DESIGN.md §10) through check.VerifyRun: the history checker with
// CheckConfig, the event-order check made as the trace was recorded,
// and the end-of-run idle checks on every site for every segment. Call
// it with no access under way. It needs Config.Engine.Obs to record a
// trace, and fails if the buffer dropped events.
func (c *Cluster) VerifyTrace() ([]check.Violation, error) {
	if c.order == nil {
		return nil, errors.New("ipc: VerifyTrace needs Config.Engine.Obs to record a trace")
	}
	if d := c.order.Buffer().Dropped(); d > 0 {
		return nil, fmt.Errorf("ipc: trace buffer dropped %d events; verification would be unsound", d)
	}
	engines := make([]*core.Engine, len(c.sites))
	for i, s := range c.sites {
		engines[i] = s.Eng
	}
	var segs []int32
	for _, seg := range c.Registry.Segments() {
		segs = append(segs, int32(seg.ID))
	}
	return check.VerifyRun(c.checkCfg, c.order, engines, segs), nil
}

// WriteTrace writes the run's trace in the schema-v2 JSONL encoding
// (docs/OBSERVABILITY.md) under a virtual-clock header.
func (c *Cluster) WriteTrace(w io.Writer) error {
	if c.order == nil {
		return errors.New("ipc: no trace recorded")
	}
	return obs.WriteJSONL(w, obs.NewHeader(obs.ClockVirtual, len(c.sites)), c.order.Buffer().Events())
}

// TraceDigest is check.TraceDigest of the run's trace, the sha256 of
// what WriteTrace writes — what scripts/tracesha.sh pins for miragesim's
// scenarios — or "" when nothing records one.
func (c *Cluster) TraceDigest() string {
	if c.order == nil {
		return ""
	}
	return check.TraceDigest(len(c.sites), c.order.Buffer().Events())
}

// Proc is a simulated user process.
type Proc struct {
	site *Site
	task *sched.Task
	uid  int

	attached map[mem.SegID]*Shm
}

// Spawn starts a process at the site running fn. uid 0 is a
// reasonable default for single-user experiments.
func (s *Site) Spawn(name string, uid int, fn func(p *Proc)) *Proc {
	p := &Proc{site: s, uid: uid, attached: make(map[mem.SegID]*Shm)}
	p.task = s.CPU.Spawn(name, func(t *sched.Task) {
		fn(p)
		// Detach anything still attached on exit, as UNIX does — in
		// segment-id order, not map order: exit cleanup sends release
		// traffic, and a schedule-deterministic simulation must not
		// let Go's map iteration pick its sequence.
		ids := make([]mem.SegID, 0, len(p.attached))
		for id := range p.attached {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			p.Shmdt(p.attached[id])
		}
	})
	p.task.RemapPages = func() int {
		n := 0
		for _, h := range p.attached {
			n += h.seg.Pages
		}
		return n
	}
	return p
}

// Compute consumes CPU time (workload work).
func (p *Proc) Compute(d time.Duration) { p.task.Compute(d) }

// Yield relinquishes the CPU — the paper's yield() system call (§7.2).
func (p *Proc) Yield() { p.task.Yield() }

// Sleep blocks the process for d.
func (p *Proc) Sleep(d time.Duration) { p.task.Sleep(d) }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.site.c.K.Now().Duration() }

// Shmget locates or creates a segment (System V shmget).
func (p *Proc) Shmget(key mem.Key, size int, flags, mode int) (mem.SegID, error) {
	seg, err := p.site.c.Registry.GetSegment(key, size, flags, mode, p.uid, p.site.id)
	if err != nil {
		return 0, err
	}
	if seg.Library == p.site.id && p.site.DSM.Seg(int32(seg.ID)) == nil {
		p.site.DSM.CreateSegment(seg)
	}
	return seg.ID, nil
}

// Shmat attaches a segment into the process (System V shmat). readonly
// attaches reject writes at the interface, as SHM_RDONLY does.
func (p *Proc) Shmat(id mem.SegID, readonly bool) (*Shm, error) {
	seg, err := p.site.c.Registry.Attach(id, p.site.id, p.uid, !readonly)
	if err != nil {
		return nil, err
	}
	p.site.DSM.AttachSegment(seg)
	h := &Shm{proc: p, seg: seg, pages: p.site.DSM.Seg(int32(id))}
	h.Accessor = mem.NewAccessor(seg, h.pages, h, readonly, true)
	p.attached[id] = h
	return h, nil
}

// Shmdt detaches (System V shmdt). The cluster-wide last detach
// destroys the segment (§2.2).
func (p *Proc) Shmdt(h *Shm) error {
	if !mem.Detach(&h.Accessor) {
		return ErrDetached
	}
	delete(p.attached, h.seg.ID)
	s := p.site
	lastHere, destroyed, err := s.c.Registry.Detach(h.seg.ID, s.id)
	switch {
	case err != nil:
		return err
	case destroyed:
		for _, site := range s.c.sites {
			site.DSM.DestroySegment(int32(h.seg.ID))
		}
	case lastHere:
		s.DSM.ReleaseSegment(int32(h.seg.ID))
	}
	return nil
}

// Shm is an attached segment: the process's window onto shared memory.
// The accessors and the page loop are mem.Accessor's, the ones a live
// site uses; Shm is their slow path on a simulated site (mem.SlowPath).
type Shm struct {
	mem.Accessor
	proc  *Proc
	seg   *mem.Segment
	pages *mmu.Seg // the site's page table for seg
}

// Fault asks the protocol for the page and sleeps until the local state
// changes, until it permits the access; the accessor then retries it
// (the hardware retries the faulting instruction). The whole of it is
// one FaultLatency sample on the virtual clock.
func (h *Shm) Fault(page int, write bool, w mem.Waiter) (mem.Waiter, error) {
	p := h.proc
	eng := p.site.DSM
	segID := int32(h.seg.ID)
	began := p.Now()
	for {
		if h.seg.Removed() {
			return w, ErrDetached
		}
		eng.Fault(segID, int32(page), write, 0, p.task.Wakeup)
		p.task.Block()
		if err := eng.FaultError(segID, int32(page)); err != nil {
			return w, err
		}
		if h.pages.Check(page, write) == mmu.NoFault {
			p.site.c.FaultLatency.Observe(int64(p.Now() - began))
			return w, nil
		}
	}
}

// Turn is nothing here: a simulated process gives the processor up
// when the scheduler says so, and the engine runs between its events.
func (h *Shm) Turn(w mem.Waiter) mem.Waiter { return w }

// RecordOp emits the op record for the coherence checker; a pointer
// test when tracing is off.
func (h *Shm) RecordOp(page, off int, write bool, b []byte) {
	h.proc.site.DSM.RecordOp(int32(h.seg.ID), int32(page), off, write, b)
}
