// Package exp implements the paper's evaluation: the workload programs
// of §7–§8 and one function per table/figure that regenerates its
// numbers on the calibrated simulator. cmd/miragebench and the
// top-level benchmarks are thin wrappers over this package.
package exp

import (
	"time"

	"mirage/internal/ipc"
	"mirage/internal/mem"
	"mirage/internal/vaxmodel"
)

const segKey mem.Key = 0x4D49 // "MI"

const rwMode = mem.OwnerRead | mem.OwnerWrite | mem.OtherRead | mem.OtherWrite

// attachShared attaches the experiment segment, creating it when this
// process is the designated creator, otherwise polling until the
// creator has made it.
func attachShared(p *ipc.Proc, create bool, size int) *ipc.Shm {
	if create {
		id, err := p.Shmget(segKey, size, mem.Create, rwMode)
		if err != nil {
			panic(err)
		}
		h, err := p.Shmat(id, false)
		if err != nil {
			panic(err)
		}
		return h
	}
	for {
		id, err := p.Shmget(segKey, size, 0, 0)
		if err == nil {
			h, err2 := p.Shmat(id, false)
			if err2 == nil {
				return h
			}
		}
		p.Sleep(time.Millisecond)
	}
}

// pingPongStats is written by the workload processes.
type pingPongStats struct {
	cycles int
}

// spinBatch is how many busy-wait polls one shared read stands for
// (the model's granularity).
const spinBatch = 32

// spinWait polls until read() reports done. With yield() the process
// relinquishes the CPU between polls (§7.2's fix); without it the
// process busy-waits, burning its scheduling quantum.
func spinWait(p *ipc.Proc, useYield bool, read func() bool) {
	for {
		if read() {
			return
		}
		if useYield {
			p.Yield()
		} else {
			p.Compute(spinBatch * vaxmodel.SpinCheck)
		}
	}
}

// pingPongSlots maps trial i to the byte offsets of its adjacent pair
// of memory locations; pairs walk through the page(s) and wrap
// (Figure 4's pint++ walking the segment).
func pingPongSlots(i, segSize int) (off1, off2 int) {
	pairs := segSize / 8
	k := i % pairs
	return k * 8, k*8 + 4
}

// Values are unique per trial so wrapped slots never alias earlier
// trials.
func checkVal(i int) uint32 { return uint32(1_000_000 + i) }
func replyVal(i int) uint32 { return uint32(2_000_000 + i) }

// runPingPong spawns the two worst-case processes: proc 1 at siteA
// writes CHECKVAL into the first location of each pair and waits for
// proc 2 at siteB to write CHECKVAL+1 into the second (Figure 4). Both
// run until the virtual deadline; the returned counter is read after
// the cluster drains. useYield picks the §7.2 variant.
func runPingPong(c *ipc.Cluster, siteA, siteB int, useYield bool, segSize int, deadline time.Duration) *pingPongStats {
	st := &pingPongStats{}
	c.Site(siteA).Spawn("pp1", 0, func(p *ipc.Proc) {
		h := attachShared(p, true, segSize)
		for i := 0; ; i++ {
			if p.Now() >= deadline {
				return
			}
			o1, o2 := pingPongSlots(i, segSize)
			if err := h.SetUint32(o1, checkVal(i)); err != nil {
				return
			}
			spinWait(p, useYield, func() bool {
				if p.Now() >= deadline {
					return true
				}
				v, err := h.Uint32(o2)
				return err != nil || v == replyVal(i)
			})
			if p.Now() >= deadline {
				return
			}
			st.cycles++
		}
	})
	c.Site(siteB).Spawn("pp2", 0, func(p *ipc.Proc) {
		p.Sleep(time.Millisecond) // let the creator win segment creation
		h := attachShared(p, false, segSize)
		for i := 0; ; i++ {
			if p.Now() >= deadline {
				return
			}
			o1, o2 := pingPongSlots(i, segSize)
			spinWait(p, useYield, func() bool {
				if p.Now() >= deadline {
					return true
				}
				v, err := h.Uint32(o1)
				return err != nil || v == checkVal(i)
			})
			if p.Now() >= deadline {
				return
			}
			if err := h.SetUint32(o2, replyVal(i)); err != nil {
				return
			}
		}
	})
	return st
}

// DefaultIterPerRound makes one countdown ≈600 ms of pure loop work:
// the locality knee the paper's Figure 8 exhibits at Δ=600 ms.
func DefaultIterPerRound() int {
	iterCost := 2 * vaxmodel.SharedMemInstruction
	return int((600 * time.Millisecond) / iterCost)
}

type countersStats struct {
	iters [2]int // committed loop iterations per process
}

// The representative application's shape: countersLocalWork of purely
// local computation between countdowns, and countersChunk iterations
// bundled per model step.
const (
	countersLocalWork = 200 * time.Millisecond
	countersChunk     = 96
)

// runCounters spawns the representative application (§8.0): two
// processes on different sites run for-loops that decrement separate
// values living on the same page, testing the termination condition
// each iteration (one shared read plus one shared write per iteration;
// the VAX decrement is a read-modify-write, so the faulting access is a
// write fault). A process counts its value down from
// DefaultIterPerRound — about 600 ms of loop work, the
// processor-locality interval behind Figure 8's Δ=600 ms knee — then
// spends countersLocalWork before starting the next countdown, until
// the virtual deadline (the paper's 10 s). Offsets 0 and 4 of the
// shared page hold the two counters.
func runCounters(c *ipc.Cluster, siteA, siteB int, deadline time.Duration) *countersStats {
	st := &countersStats{}
	iterCost := 2 * vaxmodel.SharedMemInstruction
	iterPerRound := DefaultIterPerRound()
	worker := func(idx int, create bool) func(p *ipc.Proc) {
		myOff := idx * 4
		return func(p *ipc.Proc) {
			if !create {
				p.Sleep(time.Millisecond)
			}
			h := attachShared(p, create, 512)
			for {
				if p.Now() >= deadline {
					return
				}
				// Reset this process's value: a write (fault) that
				// starts the countdown burst.
				if h.SetUint32(myOff, uint32(iterPerRound)) != nil {
					return
				}
				remaining := iterPerRound
				for remaining > 0 {
					if p.Now() >= deadline {
						return
					}
					n := countersChunk
					if n > remaining {
						n = remaining
					}
					// The chunk models n decrement-and-test iterations:
					// CPU burn followed by the committed store. The
					// store write-faults if the page moved away
					// mid-chunk, re-acquiring it before the commit.
					p.Compute(time.Duration(n) * iterCost)
					if _, err := h.AddUint32(myOff, -uint32(n)); err != nil {
						return
					}
					remaining -= n
					st.iters[idx] += n
				}
				// Local phase: work that does not touch the page. The
				// page stays here, idle, until the partner's request
				// and this page's window pry it loose — the
				// "retention" behaviour of §8.0.
				p.Compute(countersLocalWork)
			}
		}
	}
	c.Site(siteA).Spawn("dec0", 0, worker(0, true))
	c.Site(siteB).Spawn("dec1", 0, worker(1, false))
	return st
}

// RunPingPongForDebug exposes the worst-case run for calibration
// tooling; it returns completed cycles after the cluster drains.
func RunPingPongForDebug(c *ipc.Cluster, a, b int, yield bool, dur time.Duration) int {
	st := runPingPong(c, a, b, yield, 512, dur)
	c.Run()
	return st.cycles
}

// RunCountersForDebug exposes the representative run for calibration
// tooling; it returns read-write instructions per second.
func RunCountersForDebug(c *ipc.Cluster, dur time.Duration) float64 {
	st := runCounters(c, 0, 1, dur)
	c.Run()
	return 2 * float64(st.iters[0]+st.iters[1]) / dur.Seconds()
}

// SpawnSharedWriter starts a process at the site that periodically
// writes a counter into the shared page until the deadline; *writes
// counts completed stores (read after the cluster drains).
func SpawnSharedWriter(c *ipc.Cluster, site int, dur time.Duration, writes *int) {
	c.Site(site).Spawn("writer", 0, func(p *ipc.Proc) {
		h := attachShared(p, true, 512)
		for i := uint32(1); p.Now() < dur; i++ {
			if h.SetUint32(0, i) != nil {
				return
			}
			*writes++
			p.Compute(2 * vaxmodel.SharedMemInstruction)
			p.Sleep(10 * time.Millisecond)
		}
	})
}

// SpawnSharedReader starts a polling reader at the site; *reads counts
// completed loads.
func SpawnSharedReader(c *ipc.Cluster, site int, dur time.Duration, reads *int) {
	c.Site(site).Spawn("reader", 0, func(p *ipc.Proc) {
		p.Sleep(time.Millisecond)
		h := attachShared(p, false, 512)
		for p.Now() < dur {
			if _, err := h.Uint32(0); err != nil {
				return
			}
			*reads++
			p.Compute(vaxmodel.SharedMemInstruction)
			p.Yield()
		}
	})
}
