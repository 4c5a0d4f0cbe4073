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
		if a := *s.Aux(p); !a.ReaderMask.Empty() || a.Window != 0 || a.InstallTime != 0 {
			t.Fatalf("page %d auxpte = %+v", p, a)
		}
	}
	if presentCount(s) != 0 {
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
	if got := s.WindowRemaining(0, 110*time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("window should be live at +10ms: remaining %v", got)
	}
	if got := s.WindowRemaining(0, 130*time.Millisecond); got != 0 {
		t.Fatalf("window should expire exactly at +30ms: remaining %v", got)
	}
	if got := s.WindowRemaining(0, 200*time.Millisecond); got != 0 {
		t.Fatalf("remaining after expiry = %v", got)
	}
}

func TestZeroWindowAlwaysExpired(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadWrite, 5*time.Millisecond)
	if got := s.WindowRemaining(0, 5*time.Millisecond); got != 0 {
		t.Fatalf("Δ=0 must be expired immediately: remaining %v", got)
	}
}

// presentCount returns how many of s's pages are present.
func presentCount(s *Seg) int {
	n := 0
	for p := 0; p < s.Pages(); p++ {
		if s.Present(p) {
			n++
		}
	}
	return n
}

func TestPresentCount(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadOnly, 0)
	s.Install(3, nil, ReadWrite, 0)
	if n := presentCount(s); n != 2 || !s.Present(0) || !s.Present(3) {
		t.Fatalf("present = %d", n)
	}
	s.Invalidate(0)
	if n := presentCount(s); n != 1 || s.Present(0) {
		t.Fatalf("present = %d", n)
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

// read reads page p's first two bytes the way an accessor does: an
// optimistic read, and under a hold when that is refused or fails.
func read(s *Seg, p int) (b0, b1 byte, windowed, ok bool) {
	if f, at, ok := s.Snap(p); ok {
		b0, b1 = f[0], f[1]
		if s.Settled(p, at) {
			return b0, b1, at.Windowed(), true
		}
	}
	f, ok := s.Hold(p, false)
	if !ok {
		return 0, 0, false, false
	}
	b0, b1 = f[0], f[1]
	return b0, b1, s.Unhold(p, false), true
}

// A read writes nothing to the word: not an optimistic one, which only
// loads it, and not one under a hold, which changes nothing a reader
// validates against. Readers on many goroutines share the word's line.
func TestReadersShareTheWordBitIdentical(t *testing.T) {
	s := newSeg()
	data := make([]byte, 512)
	data[0], data[1] = 7, 7
	s.Install(0, data, ReadOnly, 0)
	s.SetWindow(0, time.Millisecond)
	before := s.pages[0].word.Load()
	const readers, rounds = 4, 1000
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if b0, b1, windowed, ok := read(s, 0); !ok || b0 != 7 || b1 != 7 || !windowed {
					t.Errorf("read %d %d windowed %v ok %v, want 7 7 windowed", b0, b1, windowed, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
	if after := s.pages[0].word.Load(); after != before {
		t.Fatalf("%d reads changed the word %#x -> %#x", readers*rounds, before, after)
	}
	if got := s.Invalidate(0); got[0] != 7 {
		t.Fatal("Invalidate returned another frame")
	}
}

// An optimistic read is kept only if the word did not move between its
// two loads: nothing that could change the page ended or is under way.
// Every transition moves it, the ones that leave the bytes alone too.
func TestSettledRefusesAMovedPage(t *testing.T) {
	for _, tc := range []struct {
		name string
		move func(s *Seg)
		kept bool
	}{
		{"nothing", func(s *Seg) {}, true},
		{"read under a hold", func(s *Seg) { s.Hold(0, false); s.Unhold(0, false) }, true},
		{"window set", func(s *Seg) { s.SetWindow(0, time.Millisecond) }, false},
		{"write", func(s *Seg) { s.Hold(0, true); s.Unhold(0, true) }, false},
		{"write under way", func(s *Seg) { s.Hold(0, true) }, false},
		{"downgrade", func(s *Seg) { s.Downgrade(0, 0) }, false},
		{"downgrade and upgrade", func(s *Seg) { s.Downgrade(0, 0); s.Upgrade(0, 0) }, false},
		{"invalidate", func(s *Seg) { s.Invalidate(0) }, false},
		{"reinstall", func(s *Seg) { s.Invalidate(0); s.Install(0, nil, ReadWrite, 0) }, false},
		{"close", func(s *Seg) { s.Close() }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSeg()
			s.Install(0, nil, ReadWrite, 0)
			_, at, ok := s.Snap(0)
			if !optimisticReads {
				if ok {
					t.Fatal("Snap let a read through where optimistic reads are built out")
				}
				t.Skip("optimistic reads are built out here")
			}
			if !ok {
				t.Fatal("Snap refused a read-write page")
			}
			tc.move(s)
			if got := s.Settled(0, at); got != tc.kept {
				t.Fatalf("Settled %v, want %v", got, tc.kept)
			}
		})
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
			for s.pages[0].word.Load()&waitBit == 0 {
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

// Writers exclude each other, and a reader keeps no bytes a write was
// half way through: a plain counter in the frame stays exact, and the
// race detector sees every access under a hold ordered.
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
				if !write {
					if b0, b1, _, ok := read(s, 0); ok && b0 != b1 {
						t.Error("reader saw a write half done")
					}
					continue
				}
				f, ok := s.Hold(0, true)
				for !ok { // read-only for a moment: the fault-and-retry loop
					runtime.Gosched()
					f, ok = s.Hold(0, true)
				}
				f[0]++
				f[1] = f[0]
				s.Unhold(0, true)
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

// A transition that waits for a holder stops new holds: the holder it
// found is the last it waits for. Without that, holds that keep coming
// keep a revocation out for as long as they like.
func TestWaitingTransitionStopsNewHolds(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadWrite, 0)
	if _, ok := s.Hold(0, true); !ok {
		t.Fatal("write hold refused")
	}
	var late atomic.Bool // a hold that came after the transition got in
	downgraded := make(chan bool)
	go func() {
		s.Downgrade(0, 0)
		downgraded <- !late.Load()
	}()
	for t0 := time.Now(); s.pages[0].word.Load()&waitBit == 0; runtime.Gosched() {
		if time.Since(t0) > 5*time.Second {
			t.Fatal("the transition waits for a holder and does not say so")
		}
	}
	held := make(chan struct{})
	go func() {
		if _, ok := s.Hold(0, false); ok {
			late.Store(true)
			s.Unhold(0, false)
		}
		close(held)
	}()
	time.Sleep(10 * time.Millisecond) // time enough to get in, were it let
	if late.Load() {
		t.Fatal("a hold got in while a transition was waiting")
	}
	s.Unhold(0, true)
	if !<-downgraded {
		t.Fatal("the later hold went before the waiting transition")
	}
	<-held
	if !late.Load() {
		t.Fatal("the later hold never got in")
	}
	if !s.Idle(0) || s.Prot(0) != ReadOnly {
		t.Fatalf("page word %#x left behind, want an idle read-only page", s.pages[0].word.Load())
	}
}

// Readers that keep coming do not starve a write: six goroutines
// reading a page, under a hold and optimistically, while one writes.
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
				read(s, 0)
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

// The word says whether the page has a time window; Unhold and an
// optimistic read report it, and only SetWindow changes it: not an
// access, not a transition.
func TestWindowReportedToEveryAccess(t *testing.T) {
	s := newSeg()
	s.Install(0, nil, ReadWrite, 0)
	windowed := func(write bool) bool {
		t.Helper()
		if !write {
			_, _, w, ok := read(s, 0)
			if !ok {
				t.Fatal("read refused")
			}
			return w
		}
		if _, ok := s.Hold(0, true); !ok {
			t.Fatal("write hold refused")
		}
		return s.Unhold(0, true)
	}
	if windowed(false) || windowed(true) {
		t.Fatal("a page without a window reported one")
	}
	s.SetWindow(0, 2*time.Millisecond)
	if s.Aux(0).Window != 2*time.Millisecond {
		t.Fatalf("window %v, want 2ms", s.Aux(0).Window)
	}
	if !windowed(false) || !windowed(true) {
		t.Fatal("the window went unreported")
	}
	if _, ok := s.Hold(0, false); !ok {
		t.Fatal("read hold refused")
	}
	if !s.Unhold(0, false) {
		t.Fatal("a read under a hold did not see the window")
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
	if !s.Idle(0) || s.Prot(0) != ReadWrite {
		t.Fatalf("page word %#x left behind, want an idle read-write page", s.pages[0].word.Load())
	}
}
