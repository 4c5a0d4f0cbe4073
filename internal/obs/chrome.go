package obs

import (
	"bufio"
	"io"
	"strconv"
)

// WriteChrome exports events in Chrome's trace_event JSON format,
// loadable in chrome://tracing or https://ui.perfetto.dev. Each site
// maps to a process (pid); point events become instant events ("i")
// and library grant cycles become async spans ("b"/"e") correlated by
// cycle id, so a grant's full lifetime renders as a bar. Timestamps
// are microseconds from run start. The output is deterministic for a
// given event sequence.
func WriteChrome(w io.Writer, hdr Header, events []Event) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"displayTimeUnit":"ms","otherData":{"schema":"` + headerSchema + `","clock":`)
	bw.WriteString(strconv.Quote(hdr.Clock))
	bw.WriteString(`,"sites":`)
	bw.WriteString(strconv.Itoa(hdr.Sites))
	bw.WriteString("},\n\"traceEvents\":[\n")
	var line []byte
	first := true
	emit := func() error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := bw.Write(line)
		return err
	}
	for _, ev := range events {
		line = line[:0]
		switch ev.Type {
		case EvGrantStart, EvGrantEnd:
			ph := byte('b')
			if ev.Type == EvGrantEnd {
				ph = 'e'
			}
			line = append(line, `{"name":"grant seg`...)
			line = strconv.AppendInt(line, int64(ev.Seg), 10)
			line = append(line, "/p"...)
			line = strconv.AppendInt(line, int64(ev.Page), 10)
			line = append(line, `","cat":"grant","ph":"`...)
			line = append(line, ph)
			line = append(line, `","id":`...)
			line = strconv.AppendUint(line, uint64(ev.Cycle), 10)
			line = appendChromeCommon(line, ev)
		default:
			line = append(line, `{"name":"`...)
			line = append(line, chromeName(ev)...)
			line = append(line, `","cat":"`...)
			line = append(line, chromeCat(ev.Type)...)
			line = append(line, `","ph":"i","s":"t"`...)
			line = appendChromeCommon(line, ev)
		}
		if err := emit(); err != nil {
			return err
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// appendChromeCommon appends ts/pid/tid/args and closes the object.
func appendChromeCommon(b []byte, ev Event) []byte {
	b = append(b, `,"ts":`...)
	b = strconv.AppendInt(b, ev.T.Microseconds(), 10)
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, int64(ev.Site), 10)
	b = append(b, `,"tid":0,"args":{"seg":`...)
	b = strconv.AppendInt(b, int64(ev.Seg), 10)
	b = append(b, `,"page":`...)
	b = strconv.AppendInt(b, int64(ev.Page), 10)
	b = append(b, `,"arg":`...)
	b = strconv.AppendInt(b, ev.Arg, 10)
	switch ev.Type {
	case EvMsgSend, EvMsgRecv, EvRetransmit, EvChaos:
		b = append(b, `,"from":`...)
		b = strconv.AppendInt(b, int64(ev.From), 10)
		b = append(b, `,"to":`...)
		b = strconv.AppendInt(b, int64(ev.To), 10)
	}
	b = append(b, "}}"...)
	return b
}

// chromeName picks the display name for an instant event.
func chromeName(ev Event) string {
	switch ev.Type {
	case EvMsgSend, EvMsgRecv, EvRetransmit:
		return ev.Type.String() + " " + ev.Kind.String()
	case EvFault:
		if ev.Arg == 1 {
			return "write-fault"
		}
		return "read-fault"
	case EvPageState:
		switch ev.Arg {
		case 2:
			return "page→write"
		case 1:
			return "page→read"
		default:
			return "page→invalid"
		}
	case EvChaos:
		return "chaos " + chaosName(ev.Arg)
	}
	return ev.Type.String()
}

// chromeCat groups event types into trace categories for filtering.
func chromeCat(t EvType) string {
	switch t {
	case EvFault, EvPageState, EvUpgrade, EvDowngrade:
		return "page"
	case EvMsgSend, EvMsgRecv:
		return "msg"
	case EvDeltaDeny, EvRetry:
		return "delta"
	case EvRetransmit:
		return "rel"
	case EvChaos:
		return "chaos"
	}
	return "proto"
}
