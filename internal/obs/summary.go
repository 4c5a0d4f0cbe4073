package obs

import (
	"fmt"
	"io"
	"sort"
	"time"

	"mirage/internal/wire"
)

// Summary aggregates a trace: per-type event counts, per-kind message
// counts, per-page activity, and the span of time covered. It is the
// data behind `miragetrace summarize`.
type Summary struct {
	Events    int
	Span      time.Duration
	ByType    map[EvType]int
	ByKind    map[string]int // message kind name → sends
	Pages     []PageSummary
	Denials   int
	DenialSum time.Duration // total remaining-window time across denials
	DenialMax time.Duration
}

// PageSummary is one page's activity totals within a trace.
type PageSummary struct {
	Seg, Page  int32
	Faults     int
	Grants     int
	Upgrades   int
	Downgrades int
	Denials    int

	// The library's reference log for the page (§9.0), as a view of the
	// trace: one entry per EvMsgRecv of a read or write request, which
	// carries what the log did — time, page, requesting site (From), mode
	// (Kind) — but for the faulting pid, which no analysis read. It
	// is demand as the protocol saw it: every site that was addressed as
	// the library counts, so a page whose library moved has receipts at
	// the old site and at the new one, and a request that reached a
	// deposed library and was redirected is two receipts.
	Reads, Writes int           // request receipts by mode
	Sites         int           // distinct requesting sites
	Dominant      int32         // the site with the most requests, the lowest on a tie
	DominantShare float64       // its fraction of the requests
	MeanGap       time.Duration // mean time between successive receipts; 0 under two
}

// Requests is the number of request receipts for the page.
func (p PageSummary) Requests() int { return p.Reads + p.Writes }

// pageAcc is a PageSummary being accumulated.
type pageAcc struct {
	PageSummary
	bySite      map[int32]int // request receipts by requesting site
	first, last time.Duration // time of the first and the latest receipt
}

// finish derives the reference view's columns from what was counted.
func (a *pageAcc) finish() PageSummary {
	p := a.PageSummary
	if n := p.Requests(); n > 0 {
		p.Sites = len(a.bySite)
		best := 0
		for s, c := range a.bySite {
			if c > best || (c == best && s < p.Dominant) {
				p.Dominant, best = s, c
			}
		}
		p.DominantShare = float64(best) / float64(n)
		if n > 1 {
			// Successive gaps telescope to the span of the receipts.
			p.MeanGap = (a.last - a.first) / time.Duration(n-1)
		}
	}
	return p
}

// Summarize reduces a trace to its Summary.
func Summarize(events []Event) Summary {
	s := Summary{ByType: make(map[EvType]int), ByKind: make(map[string]int)}
	pages := make(map[[2]int32]*pageAcc)
	page := func(ev Event) *pageAcc {
		k := [2]int32{ev.Seg, ev.Page}
		p := pages[k]
		if p == nil {
			p = &pageAcc{PageSummary: PageSummary{Seg: ev.Seg, Page: ev.Page}, bySite: make(map[int32]int)}
			pages[k] = p
		}
		return p
	}
	for _, ev := range events {
		s.Events++
		if ev.T > s.Span {
			s.Span = ev.T
		}
		s.ByType[ev.Type]++
		switch ev.Type {
		case EvMsgSend:
			s.ByKind[ev.Kind.String()]++
		case EvMsgRecv:
			if ev.Kind != wire.KReadReq && ev.Kind != wire.KWriteReq {
				break
			}
			p := page(ev)
			if p.Requests() == 0 {
				p.first = ev.T
			}
			p.last = ev.T
			if ev.Kind == wire.KWriteReq {
				p.Writes++
			} else {
				p.Reads++
			}
			p.bySite[ev.From]++
		case EvFault:
			page(ev).Faults++
		case EvGrantStart:
			page(ev).Grants++
		case EvUpgrade:
			page(ev).Upgrades++
		case EvDowngrade:
			page(ev).Downgrades++
		case EvDeltaDeny:
			page(ev).Denials++
			s.Denials++
			rem := time.Duration(ev.Arg)
			s.DenialSum += rem
			if rem > s.DenialMax {
				s.DenialMax = rem
			}
		}
	}
	for _, p := range pages {
		s.Pages = append(s.Pages, p.finish())
	}
	sort.Slice(s.Pages, func(i, j int) bool {
		if s.Pages[i].Seg != s.Pages[j].Seg {
			return s.Pages[i].Seg < s.Pages[j].Seg
		}
		return s.Pages[i].Page < s.Pages[j].Page
	})
	return s
}

// WriteTo prints the summary in a fixed human-readable layout.
func (s Summary) WriteTo(w io.Writer) (int64, error) {
	var written int64
	pf := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		written += int64(n)
		return err
	}
	if err := pf("%d events over %v\n", s.Events, s.Span.Round(time.Millisecond)); err != nil {
		return written, err
	}
	for t := EvInvalid + 1; t < evTypeCount; t++ {
		if n := s.ByType[t]; n > 0 {
			if err := pf("  %-12s %d\n", t.String(), n); err != nil {
				return written, err
			}
		}
	}
	if len(s.ByKind) > 0 {
		if err := pf("message sends by kind:\n"); err != nil {
			return written, err
		}
		kinds := make([]string, 0, len(s.ByKind))
		for k := range s.ByKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			if err := pf("  %-12s %d\n", k, s.ByKind[k]); err != nil {
				return written, err
			}
		}
	}
	if len(s.Pages) > 0 {
		if err := pf("per-page activity:\n"); err != nil {
			return written, err
		}
		for _, p := range s.Pages {
			if err := pf("  seg%d/p%d: %d faults, %d grants, %d upgrades, %d downgrades, %d Δ-denials\n",
				p.Seg, p.Page, p.Faults, p.Grants, p.Upgrades, p.Downgrades, p.Denials); err != nil {
				return written, err
			}
		}
	}
	// The reference view: one row per page a library was asked for.
	const refRow = "  %-12s %8v %6v %6v %5v  %-15s %v\n"
	header := false
	for _, p := range s.Pages {
		if p.Requests() == 0 {
			continue
		}
		if !header {
			header = true
			if err := pf("library reference log (request receipts):\n"+refRow,
				"page", "requests", "reads", "writes", "sites", "dominant", "mean gap"); err != nil {
				return written, err
			}
		}
		if err := pf(refRow, fmt.Sprintf("seg%d/p%d", p.Seg, p.Page), p.Requests(), p.Reads, p.Writes, p.Sites,
			fmt.Sprintf("site %d (%.0f%%)", p.Dominant, 100*p.DominantShare),
			p.MeanGap.Round(10*time.Microsecond)); err != nil {
			return written, err
		}
	}
	if s.Denials > 0 {
		mean := s.DenialSum / time.Duration(s.Denials)
		if err := pf("Δ denials: %d, mean remaining %v, max %v\n",
			s.Denials, mean.Round(10*time.Microsecond), s.DenialMax.Round(10*time.Microsecond)); err != nil {
			return written, err
		}
	}
	return written, nil
}

// Timeline filters a trace to one page's events, in order. Pass
// seg = -1 or page = -1 to wildcard that coordinate.
func Timeline(events []Event, seg, page int32) []Event {
	var out []Event
	for _, ev := range events {
		if (seg < 0 || ev.Seg == seg) && (page < 0 || ev.Page == page) {
			out = append(out, ev)
		}
	}
	return out
}

// FormatEvent renders one event as a fixed-width timeline line.
func FormatEvent(ev Event) string {
	detail := ""
	switch ev.Type {
	case EvMsgSend, EvMsgRecv, EvRetransmit:
		detail = fmt.Sprintf("%s %d→%d", ev.Kind, ev.From, ev.To)
	case EvFault:
		if ev.Arg == 1 {
			detail = "write"
		} else {
			detail = "read"
		}
	case EvDeltaDeny, EvRetry:
		detail = fmt.Sprintf("remaining %v", time.Duration(ev.Arg).Round(10*time.Microsecond))
	case EvPageState:
		switch ev.Arg {
		case 2:
			detail = "write"
		case 1:
			detail = "read"
		default:
			detail = "invalid"
		}
	case EvGrantStart:
		if ev.Arg == 1 {
			detail = fmt.Sprintf("write → site %d", ev.To)
		} else {
			detail = "read batch"
		}
	case EvChaos:
		switch ev.Arg {
		case ChaosDup:
			detail = "dup"
		case ChaosDelay:
			detail = "delay"
		case ChaosPartition:
			detail = "partition"
		case ChaosCrash:
			detail = "crash"
		default:
			detail = "drop"
		}
	}
	line := fmt.Sprintf("%12v  site%-2d  seg%d/p%-3d  %-12s", ev.T, ev.Site, ev.Seg, ev.Page, ev.Type)
	if ev.Cycle != 0 {
		line += fmt.Sprintf("  [cycle %d]", ev.Cycle)
	}
	if detail != "" {
		line += "  " + detail
	}
	return line
}
