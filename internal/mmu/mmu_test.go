package mmu

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newSeg() *Seg { return NewSeg(4, 512) }

func TestNewSegInitialState(t *testing.T) {
	s := newSeg()
	if s.Pages() != 4 || s.PageSize() != 512 {
		t.Fatalf("geometry %d x %d", s.Pages(), s.PageSize())
	}
	for p := 0; p < 4; p++ {
		if s.Prot(p) != Invalid {
			t.Fatalf("page %d prot = %v", p, s.Prot(p))
		}
		if s.Present(p) {
			t.Fatalf("page %d present", p)
		}
		if s.Aux(p).Writer != NoWriter {
			t.Fatalf("page %d writer = %d", p, s.Aux(p).Writer)
		}
	}
	if s.PresentCount() != 0 {
		t.Fatal("fresh seg has present pages")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSeg(0, 512)
}

func TestCheckFaultTypes(t *testing.T) {
	s := newSeg()
	if s.Check(0, false) != ReadFault {
		t.Fatalf("invalid read: %v", s.Check(0, false))
	}
	if s.Check(0, true) != WriteFault {
		t.Fatalf("invalid write: %v", s.Check(0, true))
	}
	s.Install(0, nil, ReadOnly, 0)
	if s.Check(0, false) != NoFault {
		t.Fatal("RO read should not fault")
	}
	if s.Check(0, true) != WriteFault {
		t.Fatal("RO write should write-fault")
	}
	s.Upgrade(0, 0)
	if s.Check(0, false) != NoFault || s.Check(0, true) != NoFault {
		t.Fatal("RW access should not fault")
	}
}

func TestInstallCopiesData(t *testing.T) {
	s := newSeg()
	data := make([]byte, 512)
	data[0], data[511] = 0xAB, 0xCD
	s.Install(1, data, ReadWrite, 7*time.Millisecond)
	data[0] = 0 // mutate source; frame must hold the copy
	f := s.Frame(1)
	if f[0] != 0xAB || f[511] != 0xCD {
		t.Fatalf("frame = %x..%x", f[0], f[511])
	}
	if s.Aux(1).InstallTime != 7*time.Millisecond {
		t.Fatalf("install time = %v", s.Aux(1).InstallTime)
	}
}

func TestInstallNilZeroFills(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadWrite, 0)
	f := s.Frame(0)
	f[5] = 9
	// Reinstall with nil must zero the recycled frame.
	s.Install(0, nil, ReadOnly, 0)
	if s.Frame(0)[5] != 0 {
		t.Fatal("reinstall with nil did not zero the frame")
	}
}

func TestInstallWrongSizePanics(t *testing.T) {
	s := newSeg()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Install(0, make([]byte, 100), ReadOnly, 0)
}

func TestInstallInvalidProtPanics(t *testing.T) {
	s := newSeg()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Install(0, nil, Invalid, 0)
}

func TestInvalidateReturnsOldContents(t *testing.T) {
	s := newSeg()
	data := make([]byte, 512)
	data[3] = 0x7E
	s.Install(2, data, ReadWrite, 0)
	old := s.Invalidate(2)
	if old[3] != 0x7E {
		t.Fatal("invalidate lost contents")
	}
	if s.Present(2) || s.Frame(2) != nil || s.Prot(2) != Invalid {
		t.Fatal("page still mapped after invalidate")
	}
}

func TestDowngradeKeepsFrame(t *testing.T) {
	s := newSeg()
	data := make([]byte, 512)
	data[9] = 1
	s.Install(0, data, ReadWrite, 0)
	s.Downgrade(0, 50*time.Millisecond)
	if s.Prot(0) != ReadOnly {
		t.Fatalf("prot = %v", s.Prot(0))
	}
	if s.Frame(0)[9] != 1 {
		t.Fatal("downgrade discarded frame")
	}
	if s.Aux(0).InstallTime != 50*time.Millisecond {
		t.Fatal("downgrade must restart the window clock")
	}
}

func TestDowngradeNonWriterPanics(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadOnly, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Downgrade(0, 0)
}

func TestUpgradeInPlace(t *testing.T) {
	s := newSeg()
	data := make([]byte, 512)
	data[100] = 42
	s.Install(0, data, ReadOnly, 0)
	s.Upgrade(0, 99*time.Millisecond)
	if s.Prot(0) != ReadWrite {
		t.Fatalf("prot = %v", s.Prot(0))
	}
	if s.Frame(0)[100] != 42 {
		t.Fatal("upgrade must not touch data (optimization 1)")
	}
	if s.Aux(0).InstallTime != 99*time.Millisecond {
		t.Fatal("upgrade must restart the window clock")
	}
}

func TestUpgradeInvalidPanics(t *testing.T) {
	s := newSeg()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Upgrade(0, 0)
}

func TestWindowExpiry(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadWrite, 100*time.Millisecond)
	s.Aux(0).Window = 30 * time.Millisecond
	if s.WindowExpired(0, 110*time.Millisecond) {
		t.Fatal("window should be live at +10ms")
	}
	if got := s.WindowRemaining(0, 110*time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("remaining = %v", got)
	}
	if !s.WindowExpired(0, 130*time.Millisecond) {
		t.Fatal("window should expire exactly at +30ms")
	}
	if got := s.WindowRemaining(0, 200*time.Millisecond); got != 0 {
		t.Fatalf("remaining after expiry = %v", got)
	}
}

func TestZeroWindowAlwaysExpired(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadWrite, 5*time.Millisecond)
	if !s.WindowExpired(0, 5*time.Millisecond) {
		t.Fatal("Δ=0 must be expired immediately")
	}
}

func TestPresentCount(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadOnly, 0)
	s.Install(3, nil, ReadWrite, 0)
	if s.PresentCount() != 2 {
		t.Fatalf("present = %d", s.PresentCount())
	}
	s.Invalidate(0)
	if s.PresentCount() != 1 {
		t.Fatalf("present = %d", s.PresentCount())
	}
}

func TestProtAndFaultStrings(t *testing.T) {
	cases := map[string]string{
		Invalid.String():    "invalid",
		ReadOnly.String():   "read-only",
		ReadWrite.String():  "read-write",
		NoFault.String():    "none",
		ReadFault.String():  "read-fault",
		WriteFault.String(): "write-fault",
	}
	for got, want := range cases {
		if got != want {
			t.Fatalf("got %q want %q", got, want)
		}
	}
	if Prot(9).String() == "" || FaultType(9).String() == "" {
		t.Fatal("unknown values must still render")
	}
}

// --- the access check and the hold (pte.go) ---

func TestHoldFollowsProtection(t *testing.T) {
	s := newSeg()
	try := func(write bool) bool {
		_, ok := s.Hold(0, write)
		if ok {
			s.Unhold(0, write)
		}
		return ok
	}
	if try(false) || try(true) {
		t.Fatal("invalid page held")
	}
	s.Install(0, nil, ReadOnly, 0)
	if !try(false) || try(true) {
		t.Fatal("read-only page: want read held, write refused")
	}
	s.Upgrade(0, 0)
	if !try(false) || !try(true) {
		t.Fatal("read-write page refused a hold")
	}
	s.Close()
	if !s.Closed() || try(false) || try(true) || s.Check(0, false) != ReadFault || s.Check(0, true) != WriteFault {
		t.Fatal("closed segment let an access through")
	}
	if s.Prot(0) != ReadWrite || !s.Present(0) {
		t.Fatal("Close changed the protection")
	}
	s.Downgrade(0, 0) // transitions go on under Close
	s.Open()
	if s.Closed() || !try(false) || try(true) {
		t.Fatal("reopened read-only page: want read held, write refused")
	}
}

func TestReadersShareOneFrame(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadOnly, 0)
	a, ok1 := s.Hold(0, false)
	b, ok2 := s.Hold(0, false)
	if !ok1 || !ok2 || &a[0] != &b[0] || &a[0] != &s.Frame(0)[0] {
		t.Fatal("two readers did not both get the page's frame")
	}
	s.Unhold(0, false)
	s.Unhold(0, false)
	if got := s.Invalidate(0); &got[0] != &a[0] {
		t.Fatal("Invalidate returned another frame")
	}
}

// A transition that takes access away returns only when no access it
// could cut short is left. The waiting bit is the event that shows the
// transition has arrived and not got through.
func TestRevocationWaitsForHolders(t *testing.T) {
	for _, tc := range []struct {
		name   string
		write  bool // the kind of hold in its way
		revoke func(s *Seg)
	}{
		{"invalidate/reader", false, func(s *Seg) { s.Invalidate(0) }},
		{"invalidate/writer", true, func(s *Seg) { s.Invalidate(0) }},
		{"downgrade/writer", true, func(s *Seg) { s.Downgrade(0, 0) }},
		{"close/reader", false, func(s *Seg) { s.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSeg()
			s.Install(0, nil, ReadWrite, 0)
			if _, ok := s.Hold(0, tc.write); !ok {
				t.Fatal("hold refused")
			}
			var revoked atomic.Bool
			done := make(chan struct{})
			go func() {
				tc.revoke(s)
				revoked.Store(true)
				close(done)
			}()
			for s.pages[0].Load()&waitBit == 0 {
				if revoked.Load() {
					t.Fatal("revocation overtook the hold")
				}
				runtime.Gosched()
			}
			if revoked.Load() {
				t.Fatal("revocation overtook the hold")
			}
			if s.Prot(0) != ReadWrite {
				t.Fatal("protection changed under the hold")
			}
			s.Unhold(0, tc.write)
			<-done
			if _, ok := s.Hold(0, true); ok {
				t.Fatal("write hold granted after the revocation")
			}
		})
	}
}

// Writers exclude each other and readers: a plain counter in the frame
// stays exact, and the race detector sees every access ordered.
func TestWriteHoldExcludes(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadWrite, 0)
	const writers, readers, rounds = 3, 3, 2000
	var wg sync.WaitGroup
	for g := 0; g < writers+readers; g++ {
		write := g < writers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f, ok := s.Hold(0, write)
				for !ok { // read-only for a moment: the fault-and-retry loop
					runtime.Gosched()
					f, ok = s.Hold(0, write)
				}
				if write {
					f[0]++
					f[1] = f[0]
				} else if f[0] != f[1] {
					t.Error("reader saw a write half done")
				}
				s.Unhold(0, write)
			}
		}()
	}
	// Transitions that keep the page come and go meanwhile.
	for i := 0; i < 200; i++ {
		s.Downgrade(0, 0)
		s.Upgrade(0, 0)
	}
	wg.Wait()
	if got, want := s.Frame(0)[0], byte(writers*rounds%256); got != want {
		t.Fatalf("counter %d, want %d", got, want)
	}
}

// A write that waits for readers stops new ones, as a transition does:
// the readers it found are the last it waits for. Without that, readers
// that keep coming keep a write out for as long as they like.
func TestWaitingWriteStopsNewReaders(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadWrite, 0)
	if _, ok := s.Hold(0, false); !ok {
		t.Fatal("read hold refused")
	}
	var late atomic.Bool // the reader that came after the write got in
	wrote := make(chan bool)
	go func() {
		_, ok := s.Hold(0, true)
		overtaken := late.Load()
		s.Unhold(0, true)
		wrote <- ok && !overtaken
	}()
	for t0 := time.Now(); s.pages[0].Load()&waitBit == 0; runtime.Gosched() {
		if time.Since(t0) > 5*time.Second {
			t.Fatal("the write waits for a reader and does not say so")
		}
	}
	read := make(chan struct{})
	go func() {
		if _, ok := s.Hold(0, false); ok {
			late.Store(true)
			s.Unhold(0, false)
		}
		close(read)
	}()
	time.Sleep(10 * time.Millisecond) // time enough to join, were it let
	if late.Load() {
		t.Fatal("a reader joined a page a write was waiting for")
	}
	s.Unhold(0, false)
	if !<-wrote {
		t.Fatal("the later reader went before the waiting write")
	}
	<-read
	if !late.Load() {
		t.Fatal("the later reader never got in")
	}
	if w := s.pages[0].Load(); w != uint32(ReadWrite) {
		t.Fatalf("page word %#x left behind, want an idle read-write page", w)
	}
}

// The same under load: six readers spinning on a page let three writes
// through in two seconds before a waiting write stopped them.
func TestWriteHoldNotStarvedByReaders(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadWrite, 0)
	const readers, writes = 6, 500
	var stop atomic.Bool
	var wg, started sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			var buf [256]byte
			for first := true; !stop.Load(); first = false {
				if f, ok := s.Hold(0, false); ok {
					copy(buf[:], f)
					s.Unhold(0, false)
				}
				if first {
					started.Done()
				}
			}
		}()
	}
	started.Wait()
	done := make(chan time.Duration)
	go func() {
		var worst time.Duration
		for i := 0; i < writes; i++ {
			t0 := time.Now()
			f, ok := s.Hold(0, true)
			if !ok {
				t.Error("write hold refused on a read-write page")
				break
			}
			f[0]++
			s.Unhold(0, true)
			if d := time.Since(t0); d > worst {
				worst = d
			}
		}
		done <- worst
	}()
	select {
	case worst := <-done:
		t.Logf("%d writes among %d spinning readers, worst wait %v", writes, readers, worst)
	case <-time.After(5 * time.Second):
		t.Error("the writer starved")
	}
	stop.Store(true)
	wg.Wait()
}

// The word says whether the page has a time window, Unhold reports it,
// and only SetWindow changes it: not a hold, not a transition.
func TestUnholdReportsWindow(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadWrite, 0)
	windowed := func(write bool) bool {
		t.Helper()
		if _, ok := s.Hold(0, write); !ok {
			t.Fatalf("hold (write %v) refused", write)
		}
		return s.Unhold(0, write)
	}
	if windowed(false) || windowed(true) {
		t.Fatal("a page without a window reported one")
	}
	s.SetWindow(0, 2*time.Millisecond)
	if s.Aux(0).Window != 2*time.Millisecond {
		t.Fatalf("window %v, want 2ms", s.Aux(0).Window)
	}
	if _, ok := s.Hold(0, false); !ok { // a second reader beside the one below
		t.Fatal("read hold refused")
	}
	if !windowed(false) {
		t.Fatal("a reader beside another did not see the window")
	}
	if !s.Unhold(0, false) || !windowed(true) {
		t.Fatal("the window went unreported")
	}
	s.Downgrade(0, 0)
	if s.Prot(0) != ReadOnly || !windowed(false) {
		t.Fatal("a downgrade lost the window bit")
	}
	s.Upgrade(0, 0)
	s.Invalidate(0)
	s.Install(0, nil, ReadWrite, 0)
	if !windowed(true) {
		t.Fatal("the window bit is SetWindow's alone, and a transition changed it")
	}
	s.SetWindow(0, 0)
	if windowed(false) || windowed(true) {
		t.Fatal("a cleared window is still reported")
	}
	if w := s.pages[0].Load(); w != uint32(ReadWrite) {
		t.Fatalf("page word %#x left behind, want an idle read-write page", w)
	}
}
