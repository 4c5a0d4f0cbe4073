package main

import (
	"fmt"
	"time"

	"mirage"
)

// mirageProbes price the public package's own machinery: the actor
// call every access pays, an attach, and how resident hits scale from
// one goroutine to two on one site.
func mirageProbes(per time.Duration, out map[string]float64) error {
	c, err := mirage.NewCluster(1, mirage.Options{})
	if err != nil {
		return fmt.Errorf("mirage probe: %w", err)
	}
	defer c.Close()
	site := c.Site(0)
	// Site.Stats is one empty post to the actor loop and a wait.
	call := func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(site.Stats().ReadFaults)
		}
	}
	out["mirage.call_rtt_ns"] = nsPerOp(per, call)
	out["mirage.call_allocs"] = mallocsPerOp(10000, call)

	var attachErr error
	out["mirage.attach_us"] = nsPerOp(per, func(n int) {
		for i := 0; i < n && attachErr == nil; i++ {
			var id mirage.SegID
			var h *mirage.Segment
			if id, attachErr = site.Shmget(mirage.IPCPrivate, 4096, mirage.Create, 0o600); attachErr != nil {
				break
			}
			if h, attachErr = site.Attach(id, false); attachErr != nil {
				break
			}
			attachErr = h.Detach()
		}
	}) / 1e3
	if attachErr != nil {
		return fmt.Errorf("mirage probe: attach cycle: %w", attachErr)
	}

	var rate [3]float64
	for g := 1; g <= 2; g++ {
		inst, err := setupHitN(1, nil, false, g)
		if err != nil {
			return fmt.Errorf("mirage probe: %w", err)
		}
		runPhase(inst, limit{dur: per / 2}, false, time.Now())
		res := runPhase(inst, limit{dur: 2 * per}, false, time.Now())
		inst.cluster().Close()
		if res.bad != nil {
			return fmt.Errorf("mirage probe: hit with %d goroutines: %w", g, res.bad)
		}
		rate[g] = float64(res.ops) / res.elapsed.Seconds()
	}
	out["mirage.hit_scaling"] = rate[2] / rate[1]
	return nil
}
