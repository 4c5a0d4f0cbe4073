package mem

import (
	"testing"
	"time"

	"mirage/internal/mmu"
)

// turnCounter is the slow path of a site whose pages are all resident:
// it counts the turns.
type turnCounter struct{ turns int }

func (c *turnCounter) Fault(int, bool, Waiter) (Waiter, error) {
	panic("mem: fault on a resident page")
}
func (c *turnCounter) Turn(w Waiter) Waiter            { c.turns++; return w }
func (c *turnCounter) RecordOp(int, int, bool, []byte) {}

// The loop calls Turn after every TurnEvery-th access an attach makes to
// pages under a time window, each page of a longer access counting once,
// and never after an access to a page without a window — whichever of
// the seven accessors makes it.
func TestTurnEveryWindowedAccess(t *testing.T) {
	const ps = 512
	pages := mmu.NewSeg(2, ps)
	for p := 0; p < 2; p++ {
		pages.Install(p, nil, mmu.ReadWrite, 0)
	}
	pages.SetWindow(0, time.Millisecond)
	var slow turnCounter
	a := NewAccessor(&Segment{Size: 2 * ps, PageSize: ps}, pages, &slow, false, false)
	want := func(turns int, after string) {
		t.Helper()
		if slow.turns != turns {
			t.Fatalf("after %s: %d turns, want %d", after, slow.turns, turns)
		}
	}
	for i := 0; i < 3*TurnEvery; i++ {
		if err := a.SetUint32(ps, uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	want(0, "writes to the page without a window")
	for i := 1; i < TurnEvery; i++ {
		if _, err := a.Uint32(0); err != nil {
			t.Fatal(err)
		}
	}
	want(0, "one windowed access short of the turn")
	if _, err := a.AddUint32(0, 1); err != nil {
		t.Fatal(err)
	}
	want(1, "the windowed access that completes the count")
	buf := make([]byte, 2*ps)
	for i := 1; i < TurnEvery; i++ {
		if err := a.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	want(1, "reads of both pages one short of the next turn")
	if err := a.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	want(2, "the read that completes it")

	// Each of the seven accessors, on an attach of its own, advances the
	// count by one for each windowed page it touches and turns when the
	// count reaches TurnEvery. Pages 0 and 1 have a window, page 2 not.
	pages = mmu.NewSeg(3, ps)
	for p := 0; p < 3; p++ {
		pages.Install(p, nil, mmu.ReadWrite, 0)
	}
	pages.SetWindow(0, time.Millisecond)
	pages.SetWindow(1, time.Millisecond)
	buf = buf[:8]
	for _, tc := range []struct {
		name  string
		pages uint32 // windowed pages one call touches
		op    func(a *Accessor) error
	}{
		{"ReadAt", 1, func(a *Accessor) error { return a.ReadAt(buf, 8) }},
		{"ReadAt/two windowed pages", 2, func(a *Accessor) error { return a.ReadAt(buf, ps-4) }},
		{"ReadAt/windowed and not", 1, func(a *Accessor) error { return a.ReadAt(buf, 2*ps-4) }},
		{"WriteAt", 1, func(a *Accessor) error { return a.WriteAt(buf, 8) }},
		{"WriteAt/two windowed pages", 2, func(a *Accessor) error { return a.WriteAt(buf, ps-4) }},
		{"Uint32", 1, func(a *Accessor) error { _, err := a.Uint32(ps - 4); return err }},
		{"Uint32/across pages", 2, func(a *Accessor) error { _, err := a.Uint32(ps - 2); return err }},
		{"SetUint32", 1, func(a *Accessor) error { return a.SetUint32(ps, 1) }},
		{"SetUint32/across pages", 2, func(a *Accessor) error { return a.SetUint32(ps-2, 1) }},
		{"AddUint32", 1, func(a *Accessor) error { _, err := a.AddUint32(0, 1); return err }},
		{"TestAndSet", 1, func(a *Accessor) error { _, err := a.TestAndSet(ps + 7); return err }},
		{"Clear", 1, func(a *Accessor) error { return a.Clear(ps - 1) }},
		{"Uint32/no window", 0, func(a *Accessor) error { _, err := a.Uint32(2 * ps); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var slow turnCounter
			a := NewAccessor(&Segment{Size: 3 * ps, PageSize: ps}, pages, &slow, false, false)
			calls := 0
			for ; slow.turns == 0 && calls < 2*TurnEvery; calls++ {
				if n := a.windowed.Load(); n != uint32(calls)*tc.pages {
					t.Fatalf("after %d calls the count is %d, want %d", calls, n, uint32(calls)*tc.pages)
				}
				if err := tc.op(&a); err != nil {
					t.Fatal(err)
				}
			}
			if tc.pages == 0 {
				if slow.turns != 0 || a.windowed.Load() != 0 {
					t.Fatalf("%d turns, count %d, on a page without a window", slow.turns, a.windowed.Load())
				}
				return
			}
			if want := TurnEvery / int(tc.pages); calls != want || slow.turns != 1 {
				t.Fatalf("the turn came after %d calls (%d turns), want after %d", calls, slow.turns, want)
			}
		})
	}
}
