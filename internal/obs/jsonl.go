package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"mirage/internal/wire"
)

// ClockVirtual and ClockWall are the two clock domains a trace can be
// recorded in. Virtual timestamps come from the simulator's
// discrete-event kernel and are exactly reproducible; wall timestamps
// are time since cluster start on the host clock.
const (
	ClockVirtual = "virtual"
	ClockWall    = "wall"
)

// Header is the first line of a JSONL trace: schema version, clock
// domain, and cluster size. It distinguishes a trace file from a bare
// event stream and lets readers reject incompatible versions.
type Header struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Clock   string `json:"clock"`
	Sites   int    `json:"sites"`
}

// headerSchema is the Header.Schema magic value.
const headerSchema = "mirage-trace"

// NewHeader returns a current-schema header for the given clock domain and size.
func NewHeader(clock string, sites int) Header {
	return Header{Schema: headerSchema, Version: SchemaVersion, Clock: clock, Sites: sites}
}

// appendEvent encodes one event as a JSON object with a fixed field
// order, so identical event sequences serialize to identical bytes —
// the property the determinism tests assert. One rule serves every event
// type: t, site, ev, seg, page and arg are always written, every other
// field whenever it is non-zero. ReadJSONL reads an absent field as 0,
// so the encoding loses nothing.
func appendEvent(b []byte, ev Event) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, int64(ev.T), 10)
	b = appendField(b, "site", int64(ev.Site))
	b = append(b, `,"ev":"`...)
	b = append(b, ev.Type.String()...)
	b = append(b, '"')
	if ev.Kind != 0 {
		b = append(b, `,"kind":"`...)
		b = append(b, ev.Kind.String()...)
		b = append(b, '"')
	}
	b = appendField(b, "seg", int64(ev.Seg))
	b = appendField(b, "page", int64(ev.Page))
	for _, f := range [...]struct {
		name string
		v    int64
	}{{"from", int64(ev.From)}, {"to", int64(ev.To)}, {"cycle", int64(ev.Cycle)}, {"epoch", int64(ev.Epoch)}} {
		if f.v != 0 {
			b = appendField(b, f.name, f.v)
		}
	}
	b = appendField(b, "arg", ev.Arg)
	return append(b, '}', '\n')
}

// appendField appends `,"name":v`.
func appendField(b []byte, name string, v int64) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return strconv.AppendInt(b, v, 10)
}

// WriteJSONL writes a header line followed by one JSON object per
// event. The byte stream is a pure function of (hdr, events).
func WriteJSONL(w io.Writer, hdr Header, events []Event) error {
	bw := bufio.NewWriter(w)
	hb, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	bw.Write(hb)
	bw.WriteByte('\n')
	var line []byte
	for _, ev := range events {
		line = appendEvent(line[:0], ev)
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// jsonEvent is the decode shape for one trace line.
type jsonEvent struct {
	T     int64  `json:"t"`
	Site  int32  `json:"site"`
	Ev    string `json:"ev"`
	Kind  string `json:"kind"`
	Seg   int32  `json:"seg"`
	Page  int32  `json:"page"`
	From  int32  `json:"from"`
	To    int32  `json:"to"`
	Cycle uint32 `json:"cycle"`
	Epoch uint32 `json:"epoch"`
	Arg   int64  `json:"arg"`
}

// ReadJSONL parses a trace produced by WriteJSONL. It validates the
// header and rejects unknown schema versions or event types.
func ReadJSONL(r io.Reader) (Header, []Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return Header{}, nil, err
		}
		return Header{}, nil, fmt.Errorf("obs: empty trace")
	}
	var hdr Header
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return Header{}, nil, fmt.Errorf("obs: bad trace header: %w", err)
	}
	if hdr.Schema != headerSchema {
		return Header{}, nil, fmt.Errorf("obs: not a mirage trace (schema %q)", hdr.Schema)
	}
	if hdr.Version > SchemaVersion {
		return Header{}, nil, fmt.Errorf("obs: trace schema v%d is newer than supported v%d", hdr.Version, SchemaVersion)
	}
	var events []Event
	line := 1
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(raw, &je); err != nil {
			return hdr, nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		t, ok := ParseEvType(je.Ev)
		if !ok {
			return hdr, nil, fmt.Errorf("obs: trace line %d: unknown event type %q", line, je.Ev)
		}
		ev := Event{
			T:     time.Duration(je.T),
			Site:  je.Site,
			Type:  t,
			Seg:   je.Seg,
			Page:  je.Page,
			From:  je.From,
			To:    je.To,
			Cycle: je.Cycle,
			Epoch: je.Epoch,
			Arg:   je.Arg,
		}
		if je.Kind != "" {
			k, ok := wire.ParseKind(je.Kind)
			if !ok {
				return hdr, nil, fmt.Errorf("obs: trace line %d: unknown message kind %q", line, je.Kind)
			}
			ev.Kind = k
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return hdr, nil, err
	}
	if len(events) == 0 {
		// A header with no events is a truncated or aborted recording,
		// not a verifiable trace: callers like `miragetrace check` must
		// not report a run coherent on the strength of zero evidence.
		return hdr, nil, fmt.Errorf("obs: trace has no events (truncated or empty recording)")
	}
	return hdr, events, nil
}
