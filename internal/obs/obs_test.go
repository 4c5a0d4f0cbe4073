package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mirage/internal/wire"
)

func sampleEvents() []Event {
	return []Event{
		{T: 0, Site: 0, Type: EvFault, Seg: 1, Page: 0, Arg: 1},
		{T: time.Millisecond, Site: 0, Type: EvMsgSend, Kind: wire.KWriteReq, Seg: 1, Page: 0, From: 0, To: 1},
		{T: 2 * time.Millisecond, Site: 1, Type: EvMsgRecv, Kind: wire.KWriteReq, Seg: 1, Page: 0, From: 0, To: 1},
		{T: 2 * time.Millisecond, Site: 1, Type: EvGrantStart, Seg: 1, Page: 0, To: 0, Cycle: 1, Arg: 1},
		{T: 3 * time.Millisecond, Site: 1, Type: EvDeltaDeny, Seg: 1, Page: 0, Arg: int64(5 * time.Millisecond)},
		{T: 9 * time.Millisecond, Site: 0, Type: EvUpgrade, Seg: 1, Page: 0},
		{T: 9 * time.Millisecond, Site: 0, Type: EvPageState, Seg: 1, Page: 0, Arg: 2},
		{T: 10 * time.Millisecond, Site: 1, Type: EvGrantEnd, Seg: 1, Page: 0, Cycle: 1},
	}
}

func TestEvTypeNamesRoundTrip(t *testing.T) {
	for typ := EvInvalid + 1; typ < evTypeCount; typ++ {
		got, ok := ParseEvType(typ.String())
		if !ok || got != typ {
			t.Fatalf("ParseEvType(%q) = %v, %v; want %v", typ.String(), got, ok, typ)
		}
	}
	if _, ok := ParseEvType("nope"); ok {
		t.Fatal("ParseEvType accepted a bogus name")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	hdr := NewHeader(ClockVirtual, 2)
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, hdr, events); err != nil {
		t.Fatal(err)
	}
	gotHdr, got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr != hdr {
		t.Fatalf("header round-trip: got %+v want %+v", gotHdr, hdr)
	}
	if len(got) != len(events) {
		t.Fatalf("got %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d round-trip: got %+v want %+v", i, got[i], events[i])
		}
	}
}

// TestJSONLKeepsEveryField: one event of every type with every Event
// field non-zero reads back exactly as written. The fields are set by
// reflection, so a field added to Event fails here until the encoder
// writes it. A v1 trace still reads.
func TestJSONLKeepsEveryField(t *testing.T) {
	var events []Event
	for _, typ := range EvTypes() {
		var ev Event
		v := reflect.ValueOf(&ev).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch {
			case f.Type() == reflect.TypeOf(typ):
				f.Set(reflect.ValueOf(typ))
			case f.Type() == reflect.TypeOf(wire.KInvalid):
				f.Set(reflect.ValueOf(wire.KWriteReq))
			case f.CanInt():
				f.SetInt(int64(i+1) * int64(typ))
			case f.CanUint():
				f.SetUint(uint64(i+1) * uint64(typ))
			default:
				t.Fatalf("Event.%s: no non-zero value for its type %s", v.Type().Field(i).Name, f.Type())
			}
			if f.IsZero() {
				t.Fatalf("Event.%s left zero", v.Type().Field(i).Name)
			}
		}
		events = append(events, ev)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, NewHeader(ClockVirtual, 2), events); err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("got %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Errorf("%s round-trip: got %+v want %+v", events[i].Type, got[i], events[i])
		}
	}

	v1 := `{"schema":"mirage-trace","version":1,"clock":"virtual","sites":2}` + "\n" +
		`{"t":5,"site":1,"ev":"msg-send","kind":"write-req","seg":1,"page":0,"from":0,"to":1,"arg":0}` + "\n"
	if _, got, err := ReadJSONL(strings.NewReader(v1)); err != nil || len(got) != 1 || got[0].To != 1 {
		t.Fatalf("v1 trace: %+v, %v", got, err)
	}
}

func TestJSONLDeterministicBytes(t *testing.T) {
	hdr := NewHeader(ClockVirtual, 2)
	events := sampleEvents()
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, hdr, events); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, hdr, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteJSONL is not byte-deterministic for identical inputs")
	}
}

func TestReadJSONLRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"not a trace": `{"schema":"other","version":1}` + "\n",
		"future":      `{"schema":"mirage-trace","version":99,"clock":"virtual","sites":2}` + "\n",
		"bad event":   `{"schema":"mirage-trace","version":1,"clock":"virtual","sites":2}` + "\n" + `{"t":0,"site":0,"ev":"bogus","seg":0,"page":0,"arg":0}` + "\n",
		"header only": `{"schema":"mirage-trace","version":1,"clock":"virtual","sites":2}` + "\n",
		"truncated":   `{"schema":"mirage-trace","version":1,"clock":"virtual","sites":2}` + "\n" + `{"t":0,"site":0,"ev":"fault","se`,
	}
	for name, in := range cases {
		if _, _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadJSONL accepted bad input", name)
		}
	}
}

func TestRegistryCountsAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Add(0, CReadFault, 1)
	r.Add(0, CReadFault, 1)
	r.Add(1, CWriteFault, 1)
	r.Add(1, CFlushByte, 4096)
	r.Add(-5, CRetry, 1)  // out of range folds into site 0
	r.Add(999, CRetry, 1) // likewise
	if got := r.Get(0, CReadFault); got != 2 {
		t.Fatalf("Get(0, CReadFault) = %d, want 2", got)
	}
	if got := r.Total(CRetry); got != 2 {
		t.Fatalf("Total(CRetry) = %d, want 2", got)
	}
	s := r.Snapshot()
	if s.Totals["read_faults"] != 2 || s.Totals["write_faults"] != 1 || s.Totals["flush_bytes"] != 4096 {
		t.Fatalf("snapshot totals wrong: %+v", s.Totals)
	}
	if s.PerSite["site1"]["write_faults"] != 1 {
		t.Fatalf("snapshot per-site wrong: %+v", s.PerSite)
	}
	if _, ok := s.PerSite["site2"]; ok {
		t.Fatal("snapshot includes an idle site")
	}
}

func TestHistObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Hist(HDenialRemaining)
	for _, v := range []int64{int64(time.Millisecond), int64(10 * time.Millisecond), int64(100 * time.Millisecond)} {
		h.Observe(v)
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
	if h.Max() != int64(100*time.Millisecond) {
		t.Fatalf("Max = %d", h.Max())
	}
	if q := h.Quantile(1.0); q < int64(100*time.Millisecond) {
		t.Fatalf("Quantile(1.0) = %d, below max sample", q)
	}
	s := r.Snapshot()
	if len(s.Hists) != 1 || s.Hists[0].Name != "denial_remaining_ns" || s.Hists[0].Count != 3 {
		t.Fatalf("hist snapshot wrong: %+v", s.Hists)
	}
}

// TestRegistryConcurrent hammers the sharded registry from many
// goroutines; run under -race this is the registry's concurrency gate.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			site := w
			for i := 0; i < per; i++ {
				r.Add(site, CMsgSent, 1)
				r.Add(site, CFlushByte, 64)
				r.Hist(HFlushBytes).Observe(64)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Total(CMsgSent); got != workers*per {
		t.Fatalf("Total(CMsgSent) = %d, want %d", got, workers*per)
	}
	if got := r.Hist(HFlushBytes).Count(); got != workers*per {
		t.Fatalf("hist count = %d, want %d", got, workers*per)
	}
}

// TestBufferConcurrent exercises the tracer buffer under concurrent
// emitters (the live-mode shape) with -race.
func TestBufferConcurrent(t *testing.T) {
	b := NewBufferCap(1000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b.Emit(Event{Site: int32(w), Type: EvMsgSend})
			}
		}(w)
	}
	wg.Wait()
	if b.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000 (capacity bound)", b.Len())
	}
	if b.Dropped() != 3000 {
		t.Fatalf("Dropped = %d, want 3000", b.Dropped())
	}
	b.Reset()
	if b.Len() != 0 || b.Dropped() != 0 {
		t.Fatal("Reset did not clear the buffer")
	}
}

// TestNilObsAllocFree proves the disabled path is free: every nil-safe
// helper on a nil *Obs must not allocate.
func TestNilObsAllocFree(t *testing.T) {
	var o *Obs
	ev := Event{Type: EvMsgSend, Kind: wire.KInval}
	if n := testing.AllocsPerRun(1000, func() {
		o.Count(1, CMsgSent)
		o.CountN(1, CFlushByte, 64)
		o.Observe(HFlushBytes, 64)
		o.Emit(ev)
		_ = o.Tracing()
	}); n != 0 {
		t.Fatalf("nil *Obs path allocates %.1f allocs/op, want 0", n)
	}
}

// TestRegistryIncAllocFree proves enabled counting stays allocation
// free: a counter Add or a histogram Observe is a few atomic adds.
func TestRegistryIncAllocFree(t *testing.T) {
	r := NewRegistry()
	if n := testing.AllocsPerRun(1000, func() {
		r.Add(3, CMsgSent, 1)
		r.Add(3, CFlushByte, 64)
		r.Hist(HFlushBytes).Observe(64)
	}); n != 0 {
		t.Fatalf("registry hot path allocates %.1f allocs/op, want 0", n)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(sampleEvents())
	if s.Events != 8 {
		t.Fatalf("Events = %d, want 8", s.Events)
	}
	if s.ByType[EvFault] != 1 || s.ByType[EvDeltaDeny] != 1 {
		t.Fatalf("ByType wrong: %v", s.ByType)
	}
	if s.ByKind["write-req"] != 1 {
		t.Fatalf("ByKind wrong: %v", s.ByKind)
	}
	if s.Denials != 1 || s.DenialMax != 5*time.Millisecond {
		t.Fatalf("denial stats wrong: %d max %v", s.Denials, s.DenialMax)
	}
	if len(s.Pages) != 1 || s.Pages[0].Faults != 1 || s.Pages[0].Upgrades != 1 {
		t.Fatalf("page summary wrong: %+v", s.Pages)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Δ denials: 1") {
		t.Fatalf("summary output missing denial line:\n%s", buf.String())
	}
}

func TestTimelineFilter(t *testing.T) {
	events := sampleEvents()
	if got := Timeline(events, 1, 0); len(got) != len(events) {
		t.Fatalf("Timeline(1,0) = %d events, want %d", len(got), len(events))
	}
	if got := Timeline(events, 2, 0); len(got) != 0 {
		t.Fatalf("Timeline(2,0) = %d events, want 0", len(got))
	}
	if got := Timeline(events, -1, -1); len(got) != len(events) {
		t.Fatal("wildcard timeline dropped events")
	}
	for _, ev := range events {
		if FormatEvent(ev) == "" {
			t.Fatal("FormatEvent returned empty")
		}
	}
}

func TestRegistryWriteTo(t *testing.T) {
	r := NewRegistry()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no events") {
		t.Fatalf("empty dump unexpected: %q", buf.String())
	}
	r.Add(0, CReadFault, 1)
	r.Hist(HFaultLatency).Observe(int64(2 * time.Millisecond))
	buf.Reset()
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "read_faults") || !strings.Contains(out, "fault_latency_ns") {
		t.Fatalf("dump missing entries:\n%s", out)
	}
}
