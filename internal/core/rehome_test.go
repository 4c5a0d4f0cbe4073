package core

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"mirage/internal/mmu"
	"mirage/internal/wire"
)

func sameRecord(a, b libRecord) bool { return reflect.DeepEqual(a, b) }

// filledRecord sets every field of a libRecord, by reflection, to a
// value that is neither zero nor any other field's: field i gets i+1
// (a site, a count, a nanosecond figure — all legal, flipEWMA included
// while the struct has fewer than flipScale fields). A field of a kind
// it does not know fails the test, so the codec cannot be left behind
// by a new field: see TestLibRecordRoundTripCoversEveryField.
func filledRecord(t *testing.T) libRecord {
	t.Helper()
	var r libRecord
	v := reflect.ValueOf(&r).Elem()
	if v.NumField() >= flipScale {
		t.Fatalf("libRecord has %d fields: give filledRecord a fill that keeps flipEWMA <= %d", v.NumField(), flipScale)
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem() // fields are unexported
		switch {
		case f.CanInt():
			f.SetInt(int64(i + 1))
		case f.Type() == reflect.TypeOf(mmu.Copyset{}):
			f.Set(reflect.ValueOf(mmu.CopysetOf(i+1, i+40)))
		default:
			t.Fatalf("libRecord.%s: filledRecord does not know kind %v", v.Type().Field(i).Name, f.Kind())
		}
	}
	return r
}

// TestLibRecordRoundTripCoversEveryField is the guard PR 10's bug
// cluster lacked: a per-page library field that must survive rehoming
// lives in libRecord, and a field added there without codec support
// comes back zero here.
func TestLibRecordRoundTripCoversEveryField(t *testing.T) {
	want := filledRecord(t)
	buf := appendRecord([]byte("xx"), &want, true)[2:]
	if wantLen := 4 + recCoreBytes + want.readers.WireLen() + recTailBytes; len(buf) != wantLen {
		t.Errorf("full record is %d bytes, want %d (a KMigrate record's length is part of every recorded trace)", len(buf), wantLen)
	}
	got, n, err := decodeRecord(buf, true)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: n=%d of %d, err=%v", n, len(buf), err)
	}
	if !sameRecord(got, want) {
		t.Errorf("full form lost a field:\n got %+v\nwant %+v", got, want)
	}

	// The core form is a log entry's record: what logged() keeps, minus
	// the page number, which the entry header carries.
	core := appendRecord(nil, &want, false)
	if len(core) != recCoreBytes+want.readers.WireLen() {
		t.Errorf("core record is %d bytes, want %d", len(core), recCoreBytes+want.readers.WireLen())
	}
	got, n, err = decodeRecord(core, false)
	if err != nil || n != len(core) {
		t.Fatalf("decode core: n=%d of %d, err=%v", n, len(core), err)
	}
	got.page = want.page
	if !sameRecord(got, want.logged()) {
		t.Errorf("core form disagrees with logged():\n got %+v\nwant %+v", got, want.logged())
	}

	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := decodeRecord(buf[:cut], true); err == nil {
			t.Fatalf("full record cut to %d of %d bytes decoded", cut, len(buf))
		}
	}
}

// FuzzLibRecordDecode: whatever bytes arrive, the decoder returns an
// error or a record that survives its own wire form, in both forms.
func FuzzLibRecordDecode(f *testing.F) {
	r := libRecord{page: 3, writer: mmu.NoWriter, clock: 2, delta: 33 * time.Millisecond,
		readers: mmu.CopysetOf(1, 2, 70),
		denied:  2, denRemEWMA: 5 * time.Millisecond, flipEWMA: flipScale / 2, lastWriter: 1}
	full := appendRecord(nil, &r, true)
	f.Add(full, true)
	f.Add(full[:30], true)
	f.Add(appendRecord(nil, &r, false), false)
	f.Add(append(appendRecord(nil, &r, false), full...), false)
	f.Add([]byte{}, true)
	f.Fuzz(func(t *testing.T, data []byte, full bool) {
		r, n, err := decodeRecord(data, full)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		again, m, err := decodeRecord(appendRecord(nil, &r, full), full)
		if err != nil || !sameRecord(again, r) {
			t.Fatalf("decoded record does not survive its own wire form: %+v -> %+v (n=%d, err=%v)", r, again, m, err)
		}
	})
}

// TestSourcesInstallTheSameRecord pushes one quiescent library state
// through each of the three rehoming sources and requires the same
// writer, clock, readers and Δ per page at the successor. No copy sits
// at the old library, so a crash loses none and the sources must agree
// exactly.
func TestSourcesInstallTheSameRecord(t *testing.T) {
	sources := []struct {
		name string
		opt  Options
		move func(n *testNet) // takes the role from site 0 to site 1
	}{
		{"log", replOptions(nil, 2), func(n *testNet) {
			n.crash(0)
			n.engines[1].beginRecovery(n.engines[1].segs[1])
		}},
		{"offer", migOptions(nil), func(n *testNet) {
			n.engines[0].startMigration(n.engines[0].segs[1], 1, n.k.Now().Duration())
		}},
	}
	type state struct {
		writer, clock int
		readers       string
		delta         time.Duration
	}
	var first []state
	for _, src := range sources {
		n := newTestNet(t, 3, src.opt)
		n.newSeg(3, 0)
		for pg, d := range []time.Duration{7 * time.Millisecond, 5 * time.Millisecond, 0} {
			if err := n.engines[0].SetPageDelta(1, int32(pg), d); err != nil {
				t.Fatal(err)
			}
		}
		n.acquire(2, 1, 0, true)  // page 0: site 2 writes
		n.acquire(1, 1, 1, true)  // page 1: sites 1 and 2 read, site 1 keeps the clock
		n.acquire(2, 1, 1, false) //
		n.acquire(1, 1, 2, true)  // page 2: site 1 writes, default Δ
		n.settle()
		src.move(n)
		n.settle()

		succ := n.engines[1]
		if succ.segs[1].lib == nil {
			t.Fatalf("%s: site 1 did not become the library", src.name)
		}
		var got []state
		for pg := int32(0); pg < 3; pg++ {
			ls := succ.LibraryState(1, pg)
			got = append(got, state{ls.Writer, ls.Clock, ls.Readers.String(), ls.Delta})
		}
		want := []state{
			{2, 2, "{}", 7 * time.Millisecond},
			{mmu.NoWriter, 1, "{1,2}", 5 * time.Millisecond},
			{1, 1, "{}", 0},
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s installed %+v, want %+v", src.name, got, want)
		}
		if first == nil {
			first = got
		} else if !reflect.DeepEqual(got, first) {
			t.Errorf("%s installed %+v, %s installed %+v", src.name, got, sources[0].name, first)
		}
		if ep := succ.segs[1].segEpoch.Load(); ep != 1 {
			t.Errorf("%s: successor at epoch %d, want 1", src.name, ep)
		}
	}
}

// TestTunedDeltaSurvivesRehoming: a page's tuned Δ must reach the
// successor whichever way the role moves — shipped with the offer or
// read from the replicated log — never clobbered by the segment
// default.
func TestTunedDeltaSurvivesRehoming(t *testing.T) {
	crashLibrary := func(n *testNet) {
		n.crash(0)
		// Site 2 holds no copy of page 0, so this access faults, gives up
		// on the dead library and triggers the takeover at site 1.
		n.acquire(2, 1, 0, false)
	}
	// postGrantWindow: the first grant after the move must itself carry
	// the tuned window; a stale-Δ grant would show up here as the seed.
	postGrantWindow := func(t *testing.T, n *testNet, tuned time.Duration) {
		if w := n.engines[2].Seg(1).Aux(0).Window; w != tuned {
			t.Errorf("post-move grant window = %v, want the tuned %v", w, tuned)
		}
	}
	logOpt := replOptions(nil, 2)
	logOpt.AutoDelta = fastAuto()
	sources := []struct {
		name  string
		opt   Options
		pages int
		seed  time.Duration                                       // the segment default Δ
		tune  func(n *testNet) time.Duration                      // returns the tuned Δ of page 0
		move  func(n *testNet)                                    // takes the role from site 0 to site 1
		check func(t *testing.T, n *testNet, tuned time.Duration) // source-specific
	}{
		{
			// The offer ships the page's whole tuning record — the tuned Δ,
			// the denial-side signals, the write-sharing state — not a
			// record for the successor to re-learn.
			name: "offer", opt: migOptions(nil), pages: 2, seed: 0,
			tune: func(n *testNet) time.Duration {
				const tuned = 7 * time.Millisecond
				if err := n.engines[0].SetPageDelta(1, 0, tuned); err != nil {
					n.t.Fatal(err)
				}
				return tuned
			},
			move: func(n *testNet) {
				// Drive the 2:1 skew one round at a time and stop at the
				// handoff, so the successor's record is dominated by shipped
				// state, not by post-migration traffic it accumulated itself.
				for i := 0; i < 80 && n.engines[1].Stats().Migrations == 0; i++ {
					driveSkew(n, 1, 1)
				}
			},
			check: func(t *testing.T, n *testNet, tuned time.Duration) {
				if got := n.engines[1].Stats().Migrations; got != 1 {
					t.Fatalf("site 1 accepted %d migrations, want 1", got)
				}
				lib := n.engines[1].segs[1].lib
				p := &lib.pages[0]
				if p.denied == 0 || p.denRemEWMA <= 0 {
					t.Errorf("denial signals not shipped: denied=%d remEWMA=%v", p.denied, p.denRemEWMA)
				}
				if p.flipEWMA == 0 || p.lastWriter == mmu.NoWriter {
					t.Errorf("write-sharing state not shipped: flipEWMA=%d lastWriter=%d", p.flipEWMA, p.lastWriter)
				}
				if p.tuned {
					t.Error("controller rate-limit state shipped; the successor must restart its cooldown")
				}
				// The untouched page rides along with the segment default.
				if q := &lib.pages[1]; q.delta != 0 || q.denied != 0 || q.lastWriter != mmu.NoWriter {
					t.Errorf("idle page polluted: Δ=%v denied=%d lastWriter=%d", q.delta, q.denied, q.lastWriter)
				}
			},
		},
		{
			// The controller's Δ reaches the replicas through the ordinary
			// record log, so an election grants with it — no cold restart
			// from the segment default.
			name: "log", opt: logOpt, pages: 1, seed: 40 * time.Millisecond,
			tune: func(n *testNet) time.Duration {
				for i := 0; i < 10; i++ {
					n.acquire(2, 1, 0, true)
					n.acquire(1, 1, 0, true)
				}
				n.settle()
				return n.engines[0].LibraryState(1, 0).Delta
			},
			move: crashLibrary,
			check: func(t *testing.T, n *testNet, tuned time.Duration) {
				if tuned >= 40*time.Millisecond {
					t.Fatalf("setup: controller never shrank Δ below the seed (got %v)", tuned)
				}
				if el := n.engines[1].Stats().Elections; el != 1 {
					t.Fatalf("successor Elections = %d, want 1", el)
				}
				postGrantWindow(t, n, tuned)
			},
		},
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			n := newTestNet(t, 3, src.opt)
			n.newSeg(src.pages, src.seed)
			tuned := src.tune(n)
			src.move(n)
			n.settle()
			if n.engines[1].segs[1].lib == nil {
				t.Fatal("site 1 did not become the library")
			}
			if got := n.engines[1].LibraryState(1, 0).Delta; got != tuned {
				t.Errorf("Δ after the move = %v, want the tuned %v (segment default %v)", got, tuned, src.seed)
			}
			src.check(t, n, tuned)
		})
	}
}

// TestDamagedMigrationOfferRefused: an offer whose second record is cut
// short used to install the part that parsed — page 1 recorded with no
// holder while two sites held copies — and ack success. The successor
// must refuse it whole and the old library resume at the unchanged
// epoch.
func TestDamagedMigrationOfferRefused(t *testing.T) {
	n := newTestNet(t, 3, migOptions(nil))
	n.newSeg(2, 0)
	n.acquire(1, 1, 1, false) // sites 1 and 2 hold read copies of page 1
	n.acquire(2, 1, 1, false)
	n.settle()

	cut := 0
	n.mangle = func(to int, m *wire.Msg) {
		if m.Kind != wire.KMigrate {
			return
		}
		if cut == 0 {
			cut = len(m.Data) - 40 // inside the second of the two records
		}
		m.Data = m.Data[:cut]
	}
	for i := 0; i < 80 && cut == 0; i++ {
		driveSkew(n, 1, 1)
	}
	n.settle()
	if cut == 0 {
		t.Fatal("no migration was offered; the damaged-offer path was not reached")
	}

	old, succ := n.engines[0], n.engines[1]
	if got := succ.Stats().Migrations; got != 0 {
		t.Errorf("successor installed a damaged offer (%d migrations)", got)
	}
	if succ.segs[1].lib != nil {
		ls := succ.LibraryState(1, 1)
		t.Errorf("successor holds a record: page 1 writer=%d readers=%v while sites 1 and 2 hold copies", ls.Writer, ls.Readers)
	}
	if got := old.Stats().MigrationsRefused; got != 1 {
		t.Errorf("old library counted %d refusals, want 1", got)
	}
	if old.segs[1].lib == nil || old.segs[1].migOut != nil {
		t.Fatal("old library did not resume")
	}
	for s, e := range n.engines {
		if ep := e.segs[1].segEpoch.Load(); ep != 0 {
			t.Errorf("site %d at epoch %d, want the unchanged 0", s, ep)
		}
	}
	if ls := old.LibraryState(1, 1); !ls.Readers.Has(1) || !ls.Readers.Has(2) {
		t.Errorf("page 1 readers = %v at the old library, want sites 1 and 2 among them", ls.Readers)
	}
	// The old library grants again, to the site that refused included.
	n.mangle = nil
	n.acquire(1, 1, 1, true)
	n.acquire(2, 1, 0, false)
	n.settle()
	n.checkSingleWriter(1, 0)
	n.checkSingleWriter(1, 1)
}

// TestChunkedOfferMatchesOneMessage migrates the library of a segment
// large enough that sendChunked cuts the offer into several messages —
// no simulated segment is: vaxmodel caps one at 256 pages, and 60 000
// bytes of full-form records take about 1 500. The successor must
// install what one message carrying every record would have installed,
// page for page, and reassemble must drop a buffered part when a
// chunk of a newer epoch arrives.
func TestChunkedOfferMatchesOneMessage(t *testing.T) {
	const pages = 2400
	n := newTestNet(t, 3, migOptions(nil))
	n.newSeg(pages, 0)
	for pg, d := range map[int32]time.Duration{5: time.Millisecond, 1600: 3 * time.Millisecond, pages - 1: 9 * time.Millisecond} {
		if err := n.engines[0].SetPageDelta(1, pg, d); err != nil {
			t.Fatal(err)
		}
	}
	n.acquire(1, 1, 0, true) // page 0: site 1 writes
	n.acquire(1, 1, 1700, false)
	n.acquire(2, 1, 1700, false) // page 1700, past the first cut: sites 1 and 2 read
	n.acquire(2, 1, pages-1, true)
	n.settle()

	// The control: every record in one message, decoded as an offer.
	old := n.engines[0].segs[1]
	var one []byte
	for i := range old.lib.pages {
		one = appendRecord(one, &old.lib.pages[i].libRecord, true)
	}
	ctl, err := n.engines[1].offerSource(n.engines[1].segs[1], &wire.Msg{}, one)
	if err != nil || len(ctl.recs) != pages {
		t.Fatalf("control payload: %d records, %v", len(ctl.recs), err)
	}

	var chunks []wire.Msg
	n.mangle = func(to int, m *wire.Msg) {
		if m.Kind == wire.KMigrate {
			c := *m
			c.Data = append([]byte(nil), m.Data...)
			chunks = append(chunks, c)
		}
	}
	n.engines[0].startMigration(old, 1, n.k.Now().Duration())
	n.settle()

	if len(chunks) < 2 {
		t.Fatalf("offer went as %d message(s), want it cut", len(chunks))
	}
	for i, c := range chunks {
		if c.Upgrade != (i == len(chunks)-1) {
			t.Fatalf("chunk %d of %d: Upgrade=%v", i, len(chunks), c.Upgrade)
		}
	}
	succ := n.engines[1].segs[1].lib
	if succ == nil {
		t.Fatal("site 1 did not install the chunked offer")
	}
	for i := range succ.pages {
		if !sameRecord(succ.pages[i].libRecord, ctl.recs[i]) {
			t.Fatalf("page %d installed %+v, one message installs %+v", i, succ.pages[i].libRecord, ctl.recs[i])
		}
	}

	// A part of an older epoch's offer is buffered when the newer
	// epoch's chunks arrive: they start over.
	sn := &segNode{}
	if _, whole := sn.reassemble(&chunks[0], 0); whole {
		t.Fatal("a first chunk completed the payload")
	}
	var got []byte
	for i := range chunks {
		c := chunks[i]
		c.SegEpoch++
		data, whole := sn.reassemble(&c, 0)
		if whole != (i == len(chunks)-1) {
			t.Fatalf("chunk %d of %d: whole=%v", i, len(chunks), whole)
		}
		got = data
	}
	if !reflect.DeepEqual(got, one) {
		t.Fatalf("reassembled %d bytes across an epoch change, one message carries %d", len(got), len(one))
	}
}
