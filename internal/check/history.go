package check

import (
	"fmt"
	"sort"
	"time"

	"mirage/internal/obs"
)

// InvSchema: an event was structurally invalid for the configured
// cluster (site out of range, negative page, ...).
const InvSchema = "trace-schema"

type pageKey struct {
	seg, page int32
}

type rangeKey struct {
	off, n int32
}

type installKey struct {
	site  int32
	epoch uint32
	cycle uint32
	state int8
}

type cycleKey struct {
	epoch, cycle uint32
}

// pageCheck is the checker's shadow of one page's global state.
type pageCheck struct {
	// st maps site -> copy state (0 invalid, 1 read, 2 write). A site
	// absent from the map has never been observed: ops there are
	// permitted (the trace may have started mid-run).
	st map[int32]int8
	// clock is the site the checker believes holds the clock role, or
	// -1 when unknown (e.g. after an unobservable clock handoff on
	// release).
	clock int32
	// windowUntil is, per site, the virtual instant the Δ window of its
	// current granted copy expires. Only consulted at the clock.
	windowUntil map[int32]time.Duration
	// openCycle is, per library epoch, the grant cycle currently running
	// at that epoch's library (0 = none); lastStart the highest cycle
	// ever started there. Cycle numbers restart from scratch when a
	// successor library takes over, so serialization is per epoch.
	openCycle map[uint32]uint32
	lastStart map[uint32]uint32
	// ended records committed cycles; installs records applied granted
	// installs. Both back the exactly-once invariant, per (cycle, epoch).
	ended    map[cycleKey]bool
	installs map[installKey]bool
	// writes holds the digest of the last completed write per exact
	// byte range; overlapping writes of a different shape evict stale
	// entries rather than guess at partial overlaps.
	writes map[rangeKey]uint64
}

// replPosKey identifies one position of a segment's replicated log.
type replPosKey struct {
	epoch uint32
	index uint32
}

// replApplyKey identifies one site's applied-index stream in one epoch.
type replApplyKey struct {
	site  int32
	epoch uint32
}

// replEntrySeen is the first-observed identity of a log position.
type replEntrySeen struct {
	digest uint32
	page   int32
}

// replCheck is the checker's shadow of one segment's replicated log
// (Options.Failover traces only; allocated on the first EvReplicate
// or EvElect for the segment).
type replCheck struct {
	// seen is the entry identity first observed per log position; every
	// later leader commit or follower apply of that position must match.
	seen map[replPosKey]replEntrySeen
	// applied is, per site and epoch, the highest log index the site has
	// applied; follower applies must be strictly increasing.
	applied map[replApplyKey]uint32
	// committed tracks the latest quorum-acknowledged log position (from
	// leader-commit events); a takeover election must install a tail at
	// or past it. Cleared when a takeover or migration restarts the log.
	committed   bool
	commitEpoch uint32
	commitIdx   uint32
}

// Checker is the streaming history checker. Feed it a schema-v2 trace
// in emission order; that order is sound for live traces too. A site's
// protocol events are emitted by one goroutine and cross-site events
// are separated by the message exchange that caused them; a live op
// record comes from the accessor's goroutine, while it holds the page:
// after the event of the grant that let it in (emitted before the page
// became visible) and before the event of the revocation that ends it
// (emitted after the holders have left) — DESIGN.md §17.
type Checker struct {
	cfg   Config
	idx   int
	pages map[pageKey]*pageCheck
	repl  map[int32]*replCheck
	viols []Violation
	extra int // violations dropped past MaxViolations
}

// NewChecker returns a Checker for one trace.
func NewChecker(cfg Config) *Checker {
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = 100
	}
	return &Checker{
		cfg:   cfg,
		pages: make(map[pageKey]*pageCheck),
		repl:  make(map[int32]*replCheck),
	}
}

func (c *Checker) report(inv string, ev obs.Event, format string, args ...any) {
	if len(c.viols) >= c.cfg.MaxViolations {
		c.extra++
		return
	}
	c.viols = append(c.viols, Violation{
		Invariant: inv, Index: c.idx, Event: ev,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Violations returns everything found so far, nil if clean.
func (c *Checker) Violations() []Violation { return c.viols }

// Dropped reports violations discarded past Config.MaxViolations.
func (c *Checker) Dropped() int { return c.extra }

func (c *Checker) page(ev obs.Event) *pageCheck {
	k := pageKey{ev.Seg, ev.Page}
	p := c.pages[k]
	if p == nil {
		p = &pageCheck{
			st:          make(map[int32]int8),
			clock:       -1,
			windowUntil: make(map[int32]time.Duration),
			openCycle:   make(map[uint32]uint32),
			lastStart:   make(map[uint32]uint32),
			ended:       make(map[cycleKey]bool),
			installs:    make(map[installKey]bool),
			writes:      make(map[rangeKey]uint64),
		}
		c.pages[k] = p
	}
	return p
}

// Feed advances the checker by one event. Call in trace order; Index in
// any resulting Violation is the running event count.
func (c *Checker) Feed(ev obs.Event) {
	defer func() { c.idx++ }()
	if c.cfg.Sites > 0 && (ev.Site < 0 || int(ev.Site) >= c.cfg.Sites) {
		c.report(InvSchema, ev, "site %d outside cluster of %d", ev.Site, c.cfg.Sites)
		return
	}
	switch ev.Type {
	case obs.EvPageState:
		c.pageState(ev)
	case obs.EvUpgrade:
		c.upgrade(ev)
	case obs.EvDowngrade:
		c.downgrade(ev)
	case obs.EvGrantStart:
		c.grantStart(ev)
	case obs.EvGrantEnd:
		c.grantEnd(ev)
	case obs.EvRead, obs.EvWrite:
		c.op(ev)
	case obs.EvRecover:
		c.recover(ev)
	case obs.EvMigrate:
		c.migrate(ev)
	case obs.EvReplicate:
		c.replicate(ev)
	case obs.EvElect:
		c.elect(ev)
	}
}

func (c *Checker) replSeg(seg int32) *replCheck {
	rc := c.repl[seg]
	if rc == nil {
		rc = &replCheck{
			seen:    make(map[replPosKey]replEntrySeen),
			applied: make(map[replApplyKey]uint32),
		}
		c.repl[seg] = rc
	}
	return rc
}

// replicate handles one replicated-log event: a leader commit (From
// names the emitting site — a gated entry reached its follower quorum)
// or a follower apply (From names the leader). Arg is the log index,
// Cycle the 32-bit digest of the entry's encoded bytes; leader and
// follower digest the identical bytes, so any disagreement at one
// (epoch, index) position means the logs diverged (InvLogPrefix). A
// follower's applied indexes must be strictly increasing within an
// epoch — the leader streams in index order over a FIFO channel, and a
// re-base snapshot only carries entries the follower has not applied.
func (c *Checker) replicate(ev obs.Event) {
	rc := c.replSeg(ev.Seg)
	idx := uint32(ev.Arg)
	pos := replPosKey{ev.Epoch, idx}
	dig := ev.Cycle
	if prev, ok := rc.seen[pos]; ok {
		if prev.digest != dig || prev.page != ev.Page {
			c.report(InvLogPrefix, ev,
				"log position (epoch %d, index %d) seen as page %d digest %x, now page %d digest %x",
				ev.Epoch, idx, prev.page, prev.digest, ev.Page, dig)
		}
	} else {
		rc.seen[pos] = replEntrySeen{digest: dig, page: ev.Page}
	}
	if ev.From == ev.Site {
		// Leader commit: the entry is quorum-acknowledged. Commits may
		// settle out of index order (acks are cumulative, gates drain as
		// a set), so only the high-water mark is tracked.
		if !rc.committed || ev.Epoch > rc.commitEpoch ||
			(ev.Epoch == rc.commitEpoch && idx > rc.commitIdx) {
			rc.committed = true
			rc.commitEpoch = ev.Epoch
			rc.commitIdx = idx
		}
		return
	}
	ak := replApplyKey{ev.Site, ev.Epoch}
	if last, ok := rc.applied[ak]; ok && idx <= last {
		c.report(InvLogPrefix, ev,
			"site %d applied log index %d after %d (epoch %d): applied stream not ascending",
			ev.Site, idx, last, ev.Epoch)
		return
	}
	rc.applied[ak] = idx
}

// elect handles a takeover election commit: ev.Site installed the
// library from the merged log tail (Cycle = merged log epoch, Arg =
// merged last index; ev.From is the dead leader). Every mutation that
// was acknowledged to a requester was first committed by a follower
// quorum, and the vote quorum is sized to intersect every commit
// quorum — so a merged tail behind the committed high-water mark means
// an acknowledged mutation was lost (InvApplyLost).
func (c *Checker) elect(ev obs.Event) {
	rc := c.replSeg(ev.Seg)
	tailEpoch, tailIdx := uint32(ev.Cycle), uint32(ev.Arg)
	if rc.committed && (tailEpoch < rc.commitEpoch ||
		(tailEpoch == rc.commitEpoch && tailIdx < rc.commitIdx)) {
		c.report(InvApplyLost, ev,
			"takeover at site %d installed log tail (epoch %d, index %d) behind committed (epoch %d, index %d)",
			ev.Site, tailEpoch, tailIdx, rc.commitEpoch, rc.commitIdx)
	}
	// The winner reseeds the log under the new epoch; commit tracking
	// restarts with it.
	rc.committed = false
}

// recover handles a library-failover recovery commit: the successor
// (ev.Site) rebuilt the segment's records for a new epoch and ev.Arg is
// the dead library site. Everything the checker believed about the dead
// site is fenced to "never observed": copies it held are unreachable,
// not provably invalid, and the recovery may have reassigned roles the
// trace cannot observe directly.
func (c *Checker) recover(ev obs.Event) {
	dead := int32(ev.Arg)
	for k, p := range c.pages {
		if k.seg != ev.Seg {
			continue
		}
		delete(p.st, dead)
		delete(p.windowUntil, dead)
		if p.clock == dead {
			p.clock = -1
		}
	}
}

// migrate handles a voluntary library migration commit: ev.Site accepted
// the library role from ev.Arg under a bumped epoch (ev.Epoch). Unlike a
// crash recovery the old library is alive and every copy it granted stays
// valid — the page record moved by exact transfer, not reconstruction —
// so nothing is fenced. Grant cycles under the new epoch are serialized
// against the old epoch's by the per-epoch keying of openCycle, lastStart
// and the install maps, which Feed already applies to every event.
func (c *Checker) migrate(ev obs.Event) {
	// The successor reseeds the replicated log from the migrated record
	// (an exact transfer, so nothing can be lost); commit tracking
	// restarts under the new epoch.
	if rc := c.repl[ev.Seg]; rc != nil {
		rc.committed = false
	}
}

// windowCheck fires when possession at the believed clock site ends at
// instant t while its granted window is still running.
func (c *Checker) windowCheck(p *pageCheck, ev obs.Event, what string) {
	if c.cfg.Delta == 0 {
		return
	}
	if p.clock != ev.Site {
		return // only the clock site's window is enforced (§6.1)
	}
	wu, ok := p.windowUntil[ev.Site]
	if !ok {
		return
	}
	if ev.T+c.cfg.Slack < wu {
		c.report(InvWindow, ev,
			"%s at clock site %d with %v left of its Δ window (expires %v)",
			what, ev.Site, wu-ev.T, wu)
	}
}

// installOnce backs the exactly-once invariant for granted installs.
func (c *Checker) installOnce(p *pageCheck, ev obs.Event, state int8) {
	if ev.Cycle == 0 {
		return
	}
	k := installKey{ev.Site, ev.Epoch, ev.Cycle, state}
	if p.installs[k] {
		c.report(InvExactlyOnce, ev,
			"granted install (cycle %d, state %d) applied twice at site %d",
			ev.Cycle, state, ev.Site)
	}
	p.installs[k] = true
}

func (c *Checker) pageState(ev obs.Event) {
	p := c.page(ev)
	switch ev.Arg {
	case 2: // writable copy installed
		if p.st[ev.Site] == 2 {
			return // echo after EvUpgrade; already applied
		}
		c.installOnce(p, ev, 2)
		p.st[ev.Site] = 2
		p.clock = ev.Site
		if ev.Cycle != 0 {
			p.windowUntil[ev.Site] = ev.T + c.cfg.Delta
		} else {
			// Ungranted hold (segment creation, reclaim, rehome):
			// possession without a window.
			delete(p.windowUntil, ev.Site)
		}
		c.exclusion(p, ev)
	case 1: // read copy installed (or write copy demoted)
		if p.st[ev.Site] == 2 {
			// A demotion that skipped EvDowngrade; still a revocation
			// of write possession.
			c.windowCheck(p, ev, "downgrade")
		}
		c.installOnce(p, ev, 1)
		p.st[ev.Site] = 1
		if ev.Cycle != 0 {
			p.windowUntil[ev.Site] = ev.T + c.cfg.Delta
		} else {
			delete(p.windowUntil, ev.Site)
		}
		c.exclusion(p, ev)
	case 0: // copy invalidated / discarded
		if ev.Cycle != 0 {
			// Protocol revocation (invalidation or inval-order).
			c.windowCheck(p, ev, "invalidation")
		}
		// Cycle 0 marks a voluntary or recovery discard (release,
		// degradation): never window-bound, and the clock role may be
		// handed off without a trace event, so it goes unknown below.
		p.st[ev.Site] = 0
		delete(p.windowUntil, ev.Site)
		if p.clock == ev.Site {
			p.clock = -1
		}
	default:
		c.report(InvSchema, ev, "page-state arg %d not in {0,1,2}", ev.Arg)
	}
}

func (c *Checker) upgrade(ev obs.Event) {
	p := c.page(ev)
	c.installOnce(p, ev, 2)
	p.st[ev.Site] = 2
	p.clock = ev.Site
	if ev.Cycle != 0 {
		p.windowUntil[ev.Site] = ev.T + c.cfg.Delta
	}
	c.exclusion(p, ev)
}

func (c *Checker) downgrade(ev obs.Event) {
	p := c.page(ev)
	if p.st[ev.Site] == 2 {
		c.windowCheck(p, ev, "downgrade")
	}
	p.st[ev.Site] = 1
	// The downgraded writer keeps the clock role and receives a fresh
	// window with its read copy.
	p.clock = ev.Site
	p.windowUntil[ev.Site] = ev.T + c.cfg.Delta
	c.exclusion(p, ev)
}

// exclusion is the single-writer invariant: a writable copy never
// coexists with any other copy (Table 1).
func (c *Checker) exclusion(p *pageCheck, ev obs.Event) {
	var writers, readers []int32
	for s, st := range p.st {
		switch st {
		case 2:
			writers = append(writers, s)
		case 1:
			readers = append(readers, s)
		}
	}
	// Map order is random; violation text must be replay-stable.
	sort.Slice(writers, func(i, j int) bool { return writers[i] < writers[j] })
	sort.Slice(readers, func(i, j int) bool { return readers[i] < readers[j] })
	if len(writers) > 1 {
		c.report(InvSingleWriter, ev, "writable copies at sites %v", writers)
	} else if len(writers) == 1 && len(readers) > 0 {
		c.report(InvSingleWriter, ev,
			"writable copy at site %d coexists with read copies at %v",
			writers[0], readers)
	}
}

func (c *Checker) grantStart(ev obs.Event) {
	p := c.page(ev)
	if ev.Cycle == 0 {
		c.report(InvSchema, ev, "grant start with cycle 0")
		return
	}
	if ev.Cycle <= p.lastStart[ev.Epoch] {
		c.report(InvWriteSerial, ev,
			"cycle %d started after cycle %d (epoch %d)",
			ev.Cycle, p.lastStart[ev.Epoch], ev.Epoch)
	}
	if p.openCycle[ev.Epoch] != 0 && !c.cfg.Reliable {
		c.report(InvWriteSerial, ev,
			"cycle %d started while cycle %d still open", ev.Cycle, p.openCycle[ev.Epoch])
	}
	// Under the reliability layer an open cycle may have been aborted
	// without a commit event; the new start closes it implicitly.
	p.openCycle[ev.Epoch] = ev.Cycle
	if ev.Cycle > p.lastStart[ev.Epoch] {
		p.lastStart[ev.Epoch] = ev.Cycle
	}
}

func (c *Checker) grantEnd(ev obs.Event) {
	p := c.page(ev)
	ck := cycleKey{ev.Epoch, ev.Cycle}
	if p.ended[ck] {
		c.report(InvExactlyOnce, ev, "cycle %d committed twice", ev.Cycle)
		return
	}
	if p.openCycle[ev.Epoch] != ev.Cycle {
		c.report(InvWriteSerial, ev,
			"cycle %d committed but open cycle is %d", ev.Cycle, p.openCycle[ev.Epoch])
	}
	p.ended[ck] = true
	if p.openCycle[ev.Epoch] == ev.Cycle {
		p.openCycle[ev.Epoch] = 0
	}
}

// op checks EvRead/EvWrite records: the copy must be live, and a read's
// digest must match the last completed write of the same byte range.
func (c *Checker) op(ev obs.Event) {
	p := c.page(ev)
	st, known := p.st[ev.Site]
	rk := rangeKey{ev.From, ev.To}
	if ev.Type == obs.EvWrite {
		if known && st != 2 {
			c.report(InvValidCopy, ev,
				"write at site %d whose copy state is %d", ev.Site, st)
		}
		// Evict overlapping ranges of a different shape: the oracle
		// only ever compares exact ranges.
		for k := range p.writes {
			if k != rk && k.off < rk.off+rk.n && rk.off < k.off+k.n {
				delete(p.writes, k)
			}
		}
		p.writes[rk] = uint64(ev.Arg)
		return
	}
	if known && st == 0 {
		c.report(InvValidCopy, ev,
			"read at site %d of an invalidated copy", ev.Site)
	}
	if want, ok := p.writes[rk]; ok && want != uint64(ev.Arg) {
		c.report(InvLatestWrite, ev,
			"read [%d,+%d) digest %x, latest write was %x",
			ev.From, ev.To, uint64(ev.Arg), want)
	}
}
