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
	"crypto/sha256"
	"encoding/hex"
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

// Config parameterizes a cluster. Zero values take paper defaults.
type Config struct {
	PageSize int           // default vaxmodel.PageSize
	Delta    time.Duration // default Δ for new segments
	MaxBytes int           // max segment size; default vaxmodel.MaxSegmentBytes
	Sched    sched.Config  // per-site scheduler parameters
	Engine   core.Options  // protocol options (policy, tracer, tuner)

	// Chaos, when set, injects the fault plan into the simulated
	// network. Pair it with Engine.Reliability — without the
	// reliability layer the engines assume lossless FIFO delivery.
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
	nextPid  int32

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

	attaches map[mem.SegID]int // local attach counts
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
	if cfg.PageSize == 0 {
		cfg.PageSize = vaxmodel.PageSize
	}
	if cfg.Delta < 0 {
		cfg.Delta = 0 // a negative window is meaningless; clamp to "no window"
	}
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = vaxmodel.MaxSegmentBytes
	}
	// Fill in the cluster size (callers pass &core.Failover{}, and the
	// AckTimeout auto-scale wants the real N). A simulated cluster with an
	// invalid option stack is a bug in the experiment that built it.
	eng, err := cfg.Engine.ForCluster(n)
	if err != nil {
		panic(fmt.Sprintf("ipc: NewCluster: %v", err))
	}
	cfg.Engine = eng
	c := &Cluster{
		K:            sim.NewKernel(),
		Registry:     mem.NewRegistry(cfg.PageSize, cfg.Delta, cfg.MaxBytes),
		nextPid:      1,
		sems:         make(map[SemID]*semSet),
		semsByKey:    make(map[mem.Key]*semSet),
		nextSem:      1,
		FaultLatency: new(obs.Hist),
		checkCfg:     check.Config{Sites: n, Delta: cfg.Delta, Reliable: eng.Reliability != nil},
	}
	if eng.AutoDelta != nil {
		// The controller retunes windows at run time; the only sound
		// static bound on every clamped grant is its floor.
		c.checkCfg.Delta = eng.AutoDelta.Min
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
		s := &Site{
			c:        c,
			id:       i,
			CPU:      sched.New(c.K, fmt.Sprintf("site%d", i), cfg.Sched),
			attaches: make(map[mem.SegID]int),
		}
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
// trace, taken from its resolved config: the site count, the segments'
// Δ (AutoDelta.Min when the controller is on) and whether the
// reliability layer lets a grant cycle abort.
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

// WriteTrace writes the run's trace in the schema-v1 JSONL encoding
// (docs/OBSERVABILITY.md) under a virtual-clock header.
func (c *Cluster) WriteTrace(w io.Writer) error {
	if c.order == nil {
		return errors.New("ipc: no trace recorded")
	}
	return obs.WriteJSONL(w, obs.NewHeader(obs.ClockVirtual, len(c.sites)), c.order.Buffer().Events())
}

// TraceDigest is the sha256 of the trace as WriteTrace writes it — what
// scripts/tracesha.sh pins for miragesim's scenarios — or "" when
// nothing records one.
func (c *Cluster) TraceDigest() string {
	h := sha256.New()
	if c.WriteTrace(h) != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Proc is a simulated user process.
type Proc struct {
	site *Site
	task *sched.Task
	pid  int32
	uid  int

	attached map[mem.SegID]*Shm
}

// Spawn starts a process at the site running fn. uid 0 is a
// reasonable default for single-user experiments.
func (s *Site) Spawn(name string, uid int, fn func(p *Proc)) *Proc {
	p := &Proc{site: s, pid: s.c.nextPid, uid: uid, attached: make(map[mem.SegID]*Shm)}
	s.c.nextPid++
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

// Pid returns the process id.
func (p *Proc) Pid() int32 { return p.pid }

// Site returns the process's site id.
func (p *Proc) Site() int { return p.site.id }

// Task exposes the scheduler task (for Compute/Yield/Sleep in
// workloads).
func (p *Proc) Task() *sched.Task { return p.task }

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
	seg, err := p.site.c.Registry.Attach(id, p.uid, !readonly)
	if err != nil {
		return nil, err
	}
	p.site.DSM.AttachSegment(seg)
	p.site.attaches[id]++
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
	s.attaches[h.seg.ID]--
	lastLocal := s.attaches[h.seg.ID] == 0
	destroyed, err := s.c.Registry.Detach(h.seg.ID)
	if err != nil {
		return err
	}
	if destroyed {
		for _, site := range s.c.sites {
			site.DSM.DestroySegment(int32(h.seg.ID))
		}
		return nil
	}
	if lastLocal {
		s.DSM.ReleaseSegment(int32(h.seg.ID))
	}
	return nil
}

// Shmctl-style removal (IPC_RMID).
func (p *Proc) ShmRemove(id mem.SegID) error {
	return p.site.c.Registry.Remove(id, p.uid)
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

// Seg returns the segment metadata.
func (h *Shm) Seg() *mem.Segment { return h.seg }

// Fault asks the protocol for the page and sleeps until the local state
// changes, then tries the hold again (the hardware retries the faulting
// instruction), until it has the page. The whole of it is one
// FaultLatency sample on the virtual clock.
func (h *Shm) Fault(page int, write bool, w mem.Waiter) ([]byte, mem.Waiter, error) {
	p := h.proc
	eng := p.site.DSM
	segID := int32(h.seg.ID)
	began := p.Now()
	for {
		if h.seg.Removed() {
			return nil, w, ErrDetached
		}
		eng.Fault(segID, int32(page), write, p.pid, p.task.Wakeup)
		p.task.Block()
		if err := eng.FaultError(segID, int32(page)); err != nil {
			return nil, w, err
		}
		if frame, ok := h.pages.Hold(page, write); ok {
			p.site.c.FaultLatency.Observe(int64(p.Now() - began))
			return frame, w, nil
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
