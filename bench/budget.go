package main

import (
	"fmt"
	"os"
)

// budgetMain prints, from a record, where the time of each faulting op
// of fault-inproc and fault-tcp goes (the ROADMAP's E24 table): the
// untraced median to be explained, what the layer probes times the
// exact counts say it should cost, what neither accounts for, and the
// shape the traced pass measured.
func budgetMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: bench budget record.json")
		return 2
	}
	rec, err := readRecord(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench budget:", err)
		return 2
	}
	L := rec.Layers
	kinds := []struct{ key, e2e, cpu string }{
		{"upgrade", "upgrade_ns_p50", "core.upgrade_cpu_ns"},
		{"write_fault", "write_ns_p50", "core.write_fault_cpu_ns"},
		{"read_fault", "read_ns_p50", "core.read_fault_cpu_ns"},
	}
	// One actor hand-off: post to a site's loop and have it wake.
	wake := L["mirage.call_rtt_ns"] / 2
	for _, t := range []struct{ tag, workload string }{{"inproc", "fault-inproc"}, {"tcp", "fault-tcp"}} {
		w := rec.Workloads[t.workload]
		if w == nil {
			continue
		}
		ph := func(k int, phase string) float64 { return L["phase."+t.tag+"."+kinds[k].key+"."+phase] }
		// What one message on the chain should cost: the mesh's one-way
		// time plus the receiving actor's wake. On the TCP mesh a site's
		// message to itself skips the socket, and the page-carrying hop
		// costs a page round trip less a short message's way back.
		short := L["transport.inproc_rtt_ns"]/2 + wake
		page, loop := short, short
		if t.tag == "tcp" {
			short = L["transport.tcp_rtt_short_ns"]/2 + wake
			page = L["transport.tcp_rtt_page4096_ns"] - L["transport.tcp_rtt_short_ns"]/2 + wake
			loop = wake
		}
		hops := func(k int) float64 {
			n, nl, np := ph(k, "hops_per_op"), ph(k, "loop_hops_per_op"), ph(k, "page_hops_per_op")
			return nl*loop + np*page + (n-nl-np)*short
		}
		// The woken accessor reposts its access: one more actor call.
		resume := L["host.chan_pingpong_ns"]/2 + L["mirage.call_rtt_ns"]
		model := func(k int) float64 { return wake + hops(k) + L[kinds[k].cpu] + resume }
		e2e := func(k int) float64 { return w.E2E[kinds[k].e2e].Value }

		fmt.Printf("\n### %s (ns, medians)\n\n", t.workload)
		fmt.Println("| row | upgrade | write fault | read fault | from |")
		fmt.Println("|---|---:|---:|---:|---|")
		row := func(name, from string, f func(k int) float64) {
			fmt.Printf("| %s | %.0f | %.0f | %.0f | %s |\n", name, f(0), f(1), f(2), from)
		}
		row("**op p50, untraced**", "end-to-end metric, to be explained", e2e)
		row("request: post to the actor, wake it", "`mirage.call_rtt_ns`/2", func(int) float64 { return wake })
		counts := func(k int) string {
			return fmt.Sprintf("%.0f / %.0f / %.0f", ph(k, "hops_per_op"), ph(k, "loop_hops_per_op"), ph(k, "page_hops_per_op"))
		}
		fmt.Printf("| messages on the critical chain: all / to self / with page | %s | %s | %s | exact, from the trace |\n", counts(0), counts(1), counts(2))
		row("hops: each the mesh's one-way time + the receiver's wake", fmt.Sprintf("`transport.*_rtt_ns`, `mirage.call_rtt_ns`/2: short %.0f, page %.0f, to self %.0f", short, page, loop), hops)
		row("engine CPU for the op", "`core.*_cpu_ns` (stub Env; off-chain bookkeeping included)", func(k int) float64 { return L[kinds[k].cpu] })
		row("resume: wake the accessor, which reposts its access", "`host.chan_pingpong_ns`/2 + `mirage.call_rtt_ns`", func(int) float64 { return resume })
		row("priced sum", "", model)
		row("**residual: untraced p50 − priced sum**", "unexplained by the probes", func(k int) float64 { return e2e(k) - model(k) })
		row("residual, % of the op", "", func(k int) float64 { return 100 * (e2e(k) - model(k)) / e2e(k) })
		row("*traced pass:* op span", "`phase.*`, observability on", func(k int) float64 { return ph(k, "span_ns") })
		row("… request: call → first message leaves", "", func(k int) float64 { return ph(k, "request_ns") })
		row("… hops: send → recv, summed", "", func(k int) float64 { return ph(k, "hops_ns") })
		row("… engine handlers on the chain", "span − the other three", func(k int) float64 { return ph(k, "residual_ns") })
		row("… resume: last page-state → call returns", "", func(k int) float64 { return ph(k, "resume_ns") })
		row("… library cycle: grant-start → grant-end", "outlasts the call; bounds the page's grant rate", func(k int) float64 { return ph(k, "library_ns") })
		row("tracing cost: traced span − untraced p50", "", func(k int) float64 { return ph(k, "span_ns") - e2e(k) })
		fmt.Printf("\nClock alignment slack of the traced pass: %.0f ns (its request and resume share this uncertainty); its median hop: %.0f ns.\n",
			L["phase."+t.tag+"_clock_slack_ns"], L["phase."+t.tag+"_hop_ns"])
	}
	return 0
}
