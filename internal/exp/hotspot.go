package exp

import (
	"time"

	"mirage/internal/ipc"
	"mirage/internal/mem"
	"mirage/internal/vaxmodel"
)

// ---------------------------------------------------------------------------
// E12 — §8.0 hot-spot organization. The paper: "consider hot spot
// pages... In one approach, hot spots are separated from the remainder
// of the segment data... In another approach all data is in one
// segment, including the hot spots. In this organization, per-page Δs
// may be useful."
//
// The workload mixes two sharing grains in one segment: page 0 is a
// hot exchange page (fine-grained ping-pong, best served by a small
// window) while page 1 carries coarse countdown bursts (best served by
// the Figure 8 peak window). A uniform Δ must sacrifice one of them;
// per-page Δs serve both.

// HotSpotResult reports both workloads' throughput under one Δ policy.
type HotSpotResult struct {
	Config   string
	HotOps   float64 // hot-page exchanges per second
	ColdInsn float64 // cold-page read-write instructions per second
}

// HotSpots measures uniform-small, uniform-large, and per-page window
// assignments over the mixed workload.
func HotSpots(dur time.Duration) []HotSpotResult {
	small := 30 * time.Millisecond
	large := 600 * time.Millisecond
	return []HotSpotResult{
		runHotSpot("uniform Δ=30ms", dur, small, small),
		runHotSpot("uniform Δ=600ms", dur, large, large),
		runHotSpot("per-page Δ (30ms hot, 600ms cold)", dur, small, large),
	}
}

func runHotSpot(name string, dur time.Duration, hotDelta, coldDelta time.Duration) HotSpotResult {
	c := ipc.NewCluster(2, ipc.Config{Delta: hotDelta})
	const segBytes = 2 * vaxmodel.PageSize

	// Create the segment up front so the per-page windows can be set
	// before the workers start faulting.
	c.Site(0).Spawn("setup", 0, func(p *ipc.Proc) {
		id, err := p.Shmget(segKey, segBytes, mem.Create, rwMode)
		if err != nil {
			panic(err)
		}
		h, err := p.Shmat(id, false)
		if err != nil {
			panic(err)
		}
		_ = h
		p.Sleep(dur + time.Second) // hold the segment for the whole run
	})
	// The setup process needs a dispatch (~1.4 ms) before the segment
	// exists; the workers hold off until after the windows are set.
	c.K.After(5*time.Millisecond, func() {
		c.Site(0).Eng.SetPageDelta(1, 0, hotDelta)
		c.Site(0).Eng.SetPageDelta(1, 1, coldDelta)
	})

	// Hot exchange: the two processes alternate writes on page 0 and
	// poll for each other (a paced ping-pong; small windows keep the
	// page moving).
	hotOps := 0
	hotWorker := func(site, idx int) {
		c.Site(site).Spawn("hot", 0, func(p *ipc.Proc) {
			p.Sleep(10 * time.Millisecond)
			h := attachShared(p, false, segBytes)
			my, other := idx*4, (1-idx)*4
			for i := uint32(1); p.Now() < dur; i++ {
				if h.SetUint32(my, i) != nil {
					return
				}
				for {
					v, err := h.Uint32(other)
					if err != nil || v >= i || p.Now() >= dur {
						break
					}
					p.Yield()
				}
				if idx == 0 {
					hotOps++
				}
			}
		})
	}
	hotWorker(0, 0)
	hotWorker(1, 1)

	// Cold bursts: Figure 8's countdown pattern on page 1.
	iterCost := 2 * vaxmodel.SharedMemInstruction
	coldIters := 0
	coldWorker := func(site, idx int) {
		c.Site(site).Spawn("cold", 0, func(p *ipc.Proc) {
			p.Sleep(10 * time.Millisecond)
			h := attachShared(p, false, segBytes)
			off := vaxmodel.PageSize + idx*4
			burst := DefaultIterPerRound()
			for p.Now() < dur {
				if h.SetUint32(off, uint32(burst)) != nil {
					return
				}
				for r := burst; r > 0 && p.Now() < dur; {
					n := 96
					if n > r {
						n = r
					}
					p.Compute(time.Duration(n) * iterCost)
					if _, err := h.AddUint32(off, -uint32(n)); err != nil {
						return
					}
					r -= n
					coldIters += n
				}
				p.Compute(200 * time.Millisecond)
			}
		})
	}
	coldWorker(0, 0)
	coldWorker(1, 1)

	c.Run()
	return HotSpotResult{
		Config:   name,
		HotOps:   float64(hotOps) / dur.Seconds(),
		ColdInsn: 2 * float64(coldIters) / dur.Seconds(),
	}
}

// ---------------------------------------------------------------------------
// E13 — §9.0 measuring time: "In Mirage Δ is measured using real-time.
// However, site loads can influence a real-time measure because heavy
// loads influence scheduling latencies. The load would decrease the
// effective Δ."
//
// The experiment runs the representative application at its peak Δ
// with and without a compute-bound competitor sharing site 1: under
// load, site 1's process gets only part of each real-time window's
// CPU, so its committed work per window — the effective Δ — shrinks.

// LoadSensitivityResult compares the loaded and unloaded site's work.
type LoadSensitivityResult struct {
	UnloadedInsn  float64 // site 1's insn/s with no competitor
	LoadedInsn    float64 // site 1's insn/s sharing the CPU with a hog
	EffectiveDrop float64 // fraction of the unloaded rate lost to load
}

// LoadSensitivity runs both configurations at Δ=600 ms.
func LoadSensitivity(dur time.Duration) LoadSensitivityResult {
	run := func(loaded bool) float64 {
		c := ipc.NewCluster(2, ipc.Config{Delta: 600 * time.Millisecond})
		st := runCounters(c, 0, 1, CountersConfig{Duration: dur})
		if loaded {
			c.Site(1).Spawn("hog", 0, func(p *ipc.Proc) {
				for p.Now() < dur {
					p.Compute(time.Millisecond)
				}
			})
		}
		c.Run()
		return 2 * float64(st.iters[1]) / dur.Seconds()
	}
	r := LoadSensitivityResult{
		UnloadedInsn: run(false),
		LoadedInsn:   run(true),
	}
	if r.UnloadedInsn > 0 {
		r.EffectiveDrop = 1 - r.LoadedInsn/r.UnloadedInsn
	}
	return r
}
