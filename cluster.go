package mirage

import (
	"fmt"
	"sync"
	"time"

	"mirage/internal/chaos"
	"mirage/internal/core"
	"mirage/internal/mem"
	"mirage/internal/obs"
	"mirage/internal/transport"
)

// Cluster is a set of Mirage sites sharing one segment name space.
type Cluster struct {
	opts  Options
	nodes []*node
	sites []*Site

	// closer tears down the shared transport fabric.
	closer func() error
	// chaos is the fault injector when Options.Chaos is set.
	chaos *chaos.Injector
	// debug is the debug HTTP server when Options.DebugAddr is set.
	debug *debugServer

	mu       sync.Mutex
	registry *mem.Registry
	nextPid  int32
	closed   bool
}

// NewCluster starts n sites. With Options.TCP the sites exchange
// protocol traffic over TCP sockets; otherwise a sender appends its
// message to the receiving site's inbox itself.
func NewCluster(n int, opts Options) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mirage: cluster size %d out of range [1,%d]", n, MaxSites)
	}
	if n > MaxSites {
		return nil, fmt.Errorf("mirage: cluster size %d: %w", n, ErrTooManySites)
	}
	opts = opts.withDefaults()
	if opts.PageSize < 0 {
		return nil, fmt.Errorf("mirage: negative page size")
	}
	if opts.Delta < 0 {
		return nil, fmt.Errorf("mirage: negative Options.Delta %v", opts.Delta)
	}
	if opts.Chaos != nil && opts.Reliability == nil {
		return nil, fmt.Errorf("mirage: Options.Chaos requires Options.Reliability")
	}
	if opts.AutoDelta != nil {
		ad := opts.AutoDelta
		if ad.Min < 0 || ad.Max < 0 || ad.Step < 0 || ad.CheapDenial < 0 ||
			ad.Cooldown < 0 || ad.MinCycles < 0 {
			return nil, fmt.Errorf("mirage: negative Options.AutoDelta field")
		}
		if ad.Max != 0 && ad.Max < ad.Min {
			return nil, fmt.Errorf("mirage: Options.AutoDelta.Max %v below Min %v", ad.Max, ad.Min)
		}
	}
	// The engine layers are validated, and told the cluster's size, in
	// one place for live and simulated clusters alike.
	engOpts, err := core.Options{
		Policy:      opts.Policy,
		Costs:       &core.Costs{}, // live nodes run at native speed
		Reliability: opts.Reliability,
		Failover:    opts.Failover,
		Placement:   opts.Placement,
		Replication: opts.Replication,
		AutoDelta:   opts.AutoDelta,
		Obs:         opts.Obs,
		InvalFanout: opts.InvalFanout,
	}.ForCluster(n)
	if err != nil {
		return nil, fmt.Errorf("mirage: %w", err)
	}
	if opts.DebugAddr != "" && opts.Obs == nil {
		return nil, fmt.Errorf("mirage: Options.DebugAddr requires Options.Obs")
	}
	if opts.Check && !opts.Obs.Tracing() {
		return nil, fmt.Errorf("mirage: Options.Check requires Options.Obs with a tracer (e.g. mirage.NewObs())")
	}
	c := &Cluster{
		opts:     opts,
		registry: mem.NewRegistry(opts.PageSize, opts.Delta, opts.MaxSegmentBytes),
		nextPid:  1,
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, newNode(i, start))
	}

	if opts.TCP {
		var meshes []*transport.TCPMesh
		addrs := make([]string, n)
		for i, nd := range c.nodes {
			nd := nd
			m, err := transport.NewTCPSite(i, opts.TCPAddr, nd.receive)
			if err != nil {
				for _, prev := range meshes {
					prev.Close()
				}
				return nil, err
			}
			meshes = append(meshes, m)
			addrs[i] = m.Addr()
		}
		for i, m := range meshes {
			m.SetPeers(addrs)
			m.SetObs(opts.Obs)
			c.nodes[i].tr = m
		}
		c.closer = func() error {
			var first error
			for _, m := range meshes {
				if err := m.Close(); err != nil && first == nil {
					first = err
				}
			}
			return first
		}
	} else {
		handlers := make([]transport.Handler, n)
		for i, nd := range c.nodes {
			handlers[i] = nd.deliver
		}
		mesh := transport.NewInprocMesh(handlers)
		for i := range c.nodes {
			c.nodes[i].tr = mesh.Site(i)
		}
		c.closer = mesh.Close
	}

	if opts.Chaos != nil {
		c.chaos = chaos.New(*opts.Chaos)
		c.chaos.SetObs(opts.Obs)
		now := func() time.Duration { return time.Since(start) }
		for i, nd := range c.nodes {
			nd.tr = chaos.WrapTransport(nd.tr, c.chaos, i, now)
		}
	}

	if opts.DebugAddr != "" {
		srv, err := startDebugServer(opts.DebugAddr, opts.Obs, n)
		if err != nil {
			c.closer()
			return nil, err
		}
		c.debug = srv
	}

	for i, nd := range c.nodes {
		nd.eng = core.New(nodeEnv{nd}, engOpts)
		nd.startLoop()
		c.sites = append(c.sites, &Site{c: c, node: nd, id: i, attaches: map[SegID]int{}})
	}
	return c, nil
}

// Sites returns the number of sites.
func (c *Cluster) Sites() int { return len(c.sites) }

// Site returns site i's interface.
func (c *Cluster) Site(i int) *Site { return c.sites[i] }

// ChaosStats returns the fault injector's counters. ok is false when
// the cluster runs without a chaos plan.
func (c *Cluster) ChaosStats() (stats ChaosStats, ok bool) {
	if c.chaos == nil {
		return ChaosStats{}, false
	}
	return c.chaos.Stats(), true
}

// Obs returns the cluster's observability sink, or nil when the
// cluster runs without one.
func (c *Cluster) Obs() *Obs { return c.opts.Obs }

// DebugAddr returns the bound address of the debug HTTP server, or ""
// when Options.DebugAddr was not set. Useful with an ephemeral listen
// address ("127.0.0.1:0").
func (c *Cluster) DebugAddr() string {
	if c.debug == nil {
		return ""
	}
	return c.debug.addr()
}

// Close shuts the cluster down: transports first (unblocking engines),
// then the actor loops. Outstanding accessors return ErrDetached.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	segs := c.registry.Segments()
	// Mark every segment removed so blocked accessors observe it.
	c.registry.DestroyAll()
	c.mu.Unlock()

	// Destroy engine state so blocked fault loops wake and error out.
	for _, s := range segs {
		for _, nd := range c.nodes {
			id := int32(s.ID)
			nd.call(func() { nd.eng.DestroySegment(id) })
		}
	}
	err := c.closer()
	for _, nd := range c.nodes {
		nd.close()
	}
	if c.debug != nil {
		if derr := c.debug.close(); err == nil {
			err = derr
		}
	}
	return err
}

func (c *Cluster) pid() int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.nextPid
	c.nextPid++
	return p
}

// Site is one machine's view of the cluster: the System V interface
// plus Mirage's tuning handles.
type Site struct {
	c    *Cluster
	node *node
	id   int

	attaches map[SegID]int // local attach counts (guarded by c.mu)
}

// ID returns the site's number.
func (s *Site) ID() int { return s.id }

// Shmget locates or creates a segment by key (System V shmget). uid 0
// is used; use ShmgetAs for permission experiments.
func (s *Site) Shmget(key Key, size int, flags, mode int) (SegID, error) {
	return s.ShmgetAs(key, size, flags, mode, 0)
}

// ShmgetAs is Shmget with an explicit calling uid.
func (s *Site) ShmgetAs(key Key, size int, flags, mode, uid int) (SegID, error) {
	s.c.mu.Lock()
	if s.c.closed {
		s.c.mu.Unlock()
		return 0, ErrClosed
	}
	seg, err := s.c.registry.GetSegment(key, size, flags, mode, uid, s.id)
	s.c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if seg.Library == s.id {
		nd := s.node
		nd.call(func() {
			if !nd.eng.Attached(int32(seg.ID)) {
				nd.eng.CreateSegment(seg)
			}
		})
	}
	return seg.ID, nil
}

// Attach maps the segment at this site (System V shmat). readonly
// attaches reject writes at the interface (SHM_RDONLY).
func (s *Site) Attach(id SegID, readonly bool) (*Segment, error) {
	return s.AttachAs(id, readonly, 0)
}

// AttachAs is Attach with an explicit calling uid.
func (s *Site) AttachAs(id SegID, readonly bool, uid int) (*Segment, error) {
	s.c.mu.Lock()
	if s.c.closed {
		s.c.mu.Unlock()
		return nil, ErrClosed
	}
	seg, err := s.c.registry.Attach(id, uid, !readonly)
	if err != nil {
		s.c.mu.Unlock()
		return nil, err
	}
	s.attaches[id]++
	s.c.mu.Unlock()

	nd := s.node
	var pages core.Mapping
	nd.call(func() {
		nd.eng.AttachSegment(seg)
		pages, _ = nd.eng.Map(int32(id))
	})
	g := &Segment{slow: liveSlowPath{site: s, seg: seg, pages: pages, pid: s.c.pid()}}
	if o := s.c.opts.Obs; o != nil && o.Metrics != nil {
		g.slow.faultLat = o.Metrics.Hist(obs.HFaultLatency)
	}
	g.Accessor = mem.NewAccessor(seg, pages.Seg(), &g.slow, readonly, s.c.opts.Check)
	return g, nil
}

// Remove marks the segment for destruction (shmctl IPC_RMID): hidden
// now, destroyed at the last detach.
func (s *Site) Remove(id SegID) error {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	return s.c.registry.Remove(id, 0)
}

// SetSegmentDelta changes Δ for every page of a segment. It must be
// called on the segment's library site, which is the site that holds
// the role now — the creating site until a failover, an election or a
// voluntary migration moves it. Any other site, or an unknown segment,
// gives ErrNotLibrary; a negative window gives ErrNegativeDelta.
func (s *Site) SetSegmentDelta(id SegID, delta time.Duration) error {
	var err error
	nd := s.node
	nd.call(func() { err = nd.eng.SetSegmentDelta(int32(id), delta) })
	return err
}

// Stats returns the site's protocol counters.
func (s *Site) Stats() core.Stats {
	var st core.Stats
	nd := s.node
	nd.call(func() { st = nd.eng.Stats() })
	return st
}

// detach performs the bookkeeping for one detach of id at this site.
func (s *Site) detach(id SegID) error {
	s.c.mu.Lock()
	if s.c.closed {
		s.c.mu.Unlock()
		return ErrClosed
	}
	s.attaches[id]--
	lastLocal := s.attaches[id] == 0
	destroyed, err := s.c.registry.Detach(id)
	s.c.mu.Unlock()
	if err != nil {
		return err
	}
	if destroyed {
		for _, nd := range s.c.nodes {
			nd := nd
			nd.call(func() { nd.eng.DestroySegment(int32(id)) })
		}
		return nil
	}
	if lastLocal {
		nd := s.node
		nd.call(func() { nd.eng.ReleaseSegment(int32(id)) })
	}
	return nil
}
