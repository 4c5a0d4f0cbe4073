// Command miragetrace is the analysis front-end for Mirage's
// observability artifacts. It reads the schema-v1 JSONL protocol
// traces produced by miragesim -trace, miragebench -trace, or a live
// cluster's /debug/obs/trace endpoint.
//
// Subcommands:
//
//	summarize <trace.jsonl>            event/page/denial totals and the
//	                                   library reference log (§9.0):
//	                                   per page, the requests received
//	timeline  [-seg N] [-page N] <trace.jsonl>
//	                                   the event timeline, optionally
//	                                   filtered to one page
//	chrome    [-o out.json] <trace.jsonl>
//	                                   convert to Chrome trace_event
//	                                   JSON (load in chrome://tracing
//	                                   or Perfetto)
//	denials   <trace.jsonl>            Δ-window denials by remaining
//	                                   time, as a denial_remaining_ns
//	                                   histogram
//	check     [-delta D] [-slack D] [-reliable] <trace.jsonl>
//	                                   verify the trace against the
//	                                   coherence invariants; exits 1
//	                                   on any violation
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mirage/internal/check"
	"mirage/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches the subcommand and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		return usage(stderr)
	}
	switch args[0] {
	case "summarize":
		return cmdSummarize(args[1:], stdout, stderr)
	case "timeline":
		return cmdTimeline(args[1:], stdout, stderr)
	case "chrome":
		return cmdChrome(args[1:], stdout, stderr)
	case "denials":
		return cmdDenials(args[1:], stdout, stderr)
	case "check":
		return cmdCheck(args[1:], stdout, stderr)
	default:
		return usage(stderr)
	}
}

func usage(stderr io.Writer) int {
	fmt.Fprint(stderr, `usage: miragetrace <subcommand> [flags] <file>

  summarize <trace.jsonl>                 event/page/denial totals, reference log
  timeline  [-seg N] [-page N] <trace.jsonl>
  chrome    [-o out.json] <trace.jsonl>   convert for chrome://tracing
  denials   <trace.jsonl>                 Δ-denial remaining-time histogram
  check     [-delta D] [-slack D] [-reliable] <trace.jsonl>
                                          verify coherence invariants
`)
	return 2
}

// readTrace loads and validates one JSONL protocol trace.
func readTrace(path string, stderr io.Writer) (obs.Header, []obs.Event, bool) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(stderr, "miragetrace: %v\n", err)
		return obs.Header{}, nil, false
	}
	defer f.Close()
	hdr, events, err := obs.ReadJSONL(f)
	if err != nil {
		fmt.Fprintf(stderr, "miragetrace: %s: %v\n", path, err)
		return obs.Header{}, nil, false
	}
	return hdr, events, true
}

// newFlagSet builds a subcommand flag set that reports errors instead
// of exiting the process.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

func oneArg(fs *flag.FlagSet, stderr io.Writer) (string, bool) {
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "usage: miragetrace %s [flags] <file>\n", fs.Name())
		return "", false
	}
	return fs.Arg(0), true
}

func cmdSummarize(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("summarize", stderr)
	if fs.Parse(args) != nil {
		return 2
	}
	path, ok := oneArg(fs, stderr)
	if !ok {
		return 2
	}
	hdr, events, ok := readTrace(path, stderr)
	if !ok {
		return 1
	}
	fmt.Fprintf(stdout, "trace: schema v%d, %s clock, %d sites\n", hdr.Version, hdr.Clock, hdr.Sites)
	if _, err := obs.Summarize(events).WriteTo(stdout); err != nil {
		fmt.Fprintf(stderr, "miragetrace: %v\n", err)
		return 1
	}
	return 0
}

func cmdTimeline(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("timeline", stderr)
	seg := fs.Int("seg", -1, "only this segment (-1 = all)")
	page := fs.Int("page", -1, "only this page (-1 = all)")
	if fs.Parse(args) != nil {
		return 2
	}
	path, ok := oneArg(fs, stderr)
	if !ok {
		return 2
	}
	_, events, ok := readTrace(path, stderr)
	if !ok {
		return 1
	}
	for _, ev := range obs.Timeline(events, int32(*seg), int32(*page)) {
		fmt.Fprintln(stdout, obs.FormatEvent(ev))
	}
	return 0
}

func cmdChrome(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("chrome", stderr)
	out := fs.String("o", "", "output file (default: stdout)")
	if fs.Parse(args) != nil {
		return 2
	}
	path, ok := oneArg(fs, stderr)
	if !ok {
		return 2
	}
	hdr, events, ok := readTrace(path, stderr)
	if !ok {
		return 1
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(stderr, "miragetrace: %v\n", err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "miragetrace: %v\n", err)
			}
		}()
		w = f
	}
	if err := obs.WriteChrome(w, hdr, events); err != nil {
		fmt.Fprintf(stderr, "miragetrace: %v\n", err)
		return 1
	}
	if *out != "" {
		fmt.Fprintf(stdout, "%d events -> %s (open in chrome://tracing or ui.perfetto.dev)\n", len(events), *out)
	}
	return 0
}

// cmdDenials prints the trace's Δ-denial remaining times as the
// registry's denial_remaining_ns histogram would: the same samples,
// bucketed and printed the one way.
func cmdDenials(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("denials", stderr)
	if fs.Parse(args) != nil {
		return 2
	}
	path, ok := oneArg(fs, stderr)
	if !ok {
		return 2
	}
	_, events, ok := readTrace(path, stderr)
	if !ok {
		return 1
	}
	var h obs.Hist
	for _, ev := range events {
		if ev.Type == obs.EvDeltaDeny {
			h.Observe(ev.Arg)
		}
	}
	if h.Count() == 0 {
		fmt.Fprintln(stdout, "no Δ-window denials in the trace")
		return 0
	}
	if _, err := h.Snapshot(obs.HDenialRemaining.String()).WriteTo(stdout); err != nil {
		fmt.Fprintf(stderr, "miragetrace: %v\n", err)
		return 1
	}
	return 0
}

// cmdCheck runs the coherence history checker over a recorded trace.
// The site count comes from the trace header; the window length Δ is
// not recorded in traces, so the possession invariant only activates
// when -delta is given.
func cmdCheck(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("check", stderr)
	delta := fs.Duration("delta", 0, "the run's Δ window; enables the possession invariant (0 = skip it)")
	slack := fs.Duration("slack", 0, "window-invariant timestamp tolerance (use ~25ms for wall-clock traces)")
	reliable := fs.Bool("reliable", false, "trace recorded with the reliability layer (permits implicit grant aborts)")
	maxViolations := fs.Int("max-violations", 100, "stop collecting after this many violations")
	if fs.Parse(args) != nil {
		return 2
	}
	path, ok := oneArg(fs, stderr)
	if !ok {
		return 2
	}
	hdr, events, ok := readTrace(path, stderr)
	if !ok {
		return 1
	}
	if *slack == 0 && hdr.Clock == obs.ClockWall && *delta > 0 {
		fmt.Fprintln(stderr, "miragetrace: note: wall-clock trace with -delta but no -slack; timer jitter may report spurious window violations")
	}
	cfg := check.Config{
		Sites:         hdr.Sites,
		Delta:         *delta,
		Slack:         *slack,
		Reliable:      *reliable,
		MaxViolations: *maxViolations,
	}
	viols := check.Verify(cfg, events)
	ops := 0
	for _, ev := range events {
		if ev.Type == obs.EvRead || ev.Type == obs.EvWrite {
			ops++
		}
	}
	fmt.Fprintf(stdout, "trace: schema v%d, %s clock, %d sites, %d events (%d op records)\n",
		hdr.Version, hdr.Clock, hdr.Sites, len(events), ops)
	if ops == 0 {
		fmt.Fprintln(stdout, "note: no op records (run recorded without -check / Options.Check); data invariants not exercised")
	}
	if len(viols) == 0 {
		fmt.Fprintln(stdout, "coherent: no invariant violations")
		return 0
	}
	for _, v := range viols {
		fmt.Fprintf(stdout, "violation: %v\n", v)
	}
	fmt.Fprintf(stderr, "miragetrace: %d coherence violation(s)\n", len(viols))
	return 1
}
