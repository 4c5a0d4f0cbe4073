package mirage

import (
	"bytes"
	"errors"
	"testing"

	"mirage/internal/check"
	"mirage/internal/ipc"
	"mirage/internal/mem"
)

// accessor is the access surface a process has on either kind of site:
// mem.Accessor's method set, which mirage.Segment and ipc.Shm embed.
type accessor interface {
	ReadAt(b []byte, off int) error
	WriteAt(b []byte, off int) error
	Uint32(off int) (uint32, error)
	SetUint32(off int, v uint32) error
	AddUint32(off int, delta uint32) (uint32, error)
	TestAndSet(off int) (byte, error)
	Clear(off int) error
}

// surface is one kind of site's way to the conformance segment:
// confSize bytes, so its fourth 512-byte page is cut short and a bound
// by size differs from a bound by pages.
type surface struct {
	attach func(readonly bool) accessor
	detach func(accessor) error
	held   func() int // page words not idle, over every site
}

const confSize = 2000

// onSim runs row in a simulated process: a two-site ipc cluster, every
// attach at the creating site. A row must not call t.Fatal — it would
// end the task's goroutine under the kernel.
func onSim(t *testing.T, row func(*testing.T, surface)) {
	c := ipc.NewCluster(2, ipc.Config{PageSize: 512})
	ran := false
	c.Site(0).Spawn("conformance", 0, func(p *ipc.Proc) {
		id, err := p.Shmget(7, confSize, mem.Create, 0o666)
		if err != nil {
			t.Error(err)
			return
		}
		row(t, surface{
			attach: func(readonly bool) accessor {
				h, err := p.Shmat(id, readonly)
				if err != nil {
					t.Error(err)
				}
				return h
			},
			detach: func(a accessor) error { return p.Shmdt(a.(*ipc.Shm)) },
			held: func() (n int) {
				for i := 0; i < c.Sites(); i++ {
					if m := c.Site(i).DSM.Seg(int32(id)); m != nil {
						n += len(check.HeldPages(i, int32(id), m))
					}
				}
				return n
			},
		})
		ran = true
	})
	c.Run()
	if !ran {
		t.Error("the simulated process did not finish the row")
	}
}

// onLive runs row on an in-process live cluster of two sites: read-write
// attaches at the creating site, read-only ones at the other, so what a
// read-only handle reads has crossed the protocol.
func onLive(t *testing.T, row func(*testing.T, surface)) {
	c := newTestCluster(t, 2, Options{PageSize: 512})
	id, err := c.Site(0).Shmget(7, confSize, Create, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	row(t, surface{
		attach: func(readonly bool) accessor {
			site := 0
			if readonly {
				site = 1
			}
			g, err := c.Site(site).Attach(id, readonly)
			if err != nil {
				t.Error(err)
			}
			return g
		},
		detach: func(a accessor) error { return a.(*Segment).Detach() },
		held: func() (n int) {
			for _, nd := range c.nodes {
				nd := nd
				nd.call(func() {
					if m := nd.eng.Seg(int32(id)); m != nil {
						n += len(check.HeldPages(nd.site, int32(id), m))
					}
				})
			}
			return n
		},
	})
}

// everyAccessor calls each of the seven accessors at off, where all of
// them are in bounds, and returns the errors by name.
func everyAccessor(a accessor, off int) map[string]error {
	errs := map[string]error{}
	errs["ReadAt"] = a.ReadAt(make([]byte, 4), off)
	errs["WriteAt"] = a.WriteAt(make([]byte, 4), off)
	_, errs["Uint32"] = a.Uint32(off)
	errs["SetUint32"] = a.SetUint32(off, 1)
	_, errs["AddUint32"] = a.AddUint32(off, 1)
	_, errs["TestAndSet"] = a.TestAndSet(off)
	errs["Clear"] = a.Clear(off)
	return errs
}

// panics reports whether fn panicked.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

var conformanceRows = []struct {
	name string
	run  func(*testing.T, surface)
}{
	{"bounds", func(t *testing.T, s surface) {
		a := s.attach(false)
		if err := a.WriteAt([]byte{1}, confSize); !errors.Is(err, ErrBounds) {
			t.Errorf("WriteAt at the size: err = %v", err)
		}
		if err := a.ReadAt(make([]byte, 10), -1); !errors.Is(err, ErrBounds) {
			t.Errorf("ReadAt before the start: err = %v", err)
		}
		if _, err := a.AddUint32(confSize-2, 1); !errors.Is(err, ErrBounds) {
			t.Errorf("AddUint32 of a word past the end: err = %v", err)
		}
		if _, err := a.Uint32(confSize - 3); !errors.Is(err, ErrBounds) {
			t.Errorf("Uint32 of a word past the end: err = %v", err)
		}
		if err := a.WriteAt([]byte{1}, confSize-1); err != nil {
			t.Errorf("WriteAt of the last byte: %v", err)
		}
	}},
	{"read-only", func(t *testing.T, s surface) {
		rw, ro := s.attach(false), s.attach(true)
		if err := rw.SetUint32(0, 9); err != nil {
			t.Error(err)
		}
		if v, err := ro.Uint32(0); v != 9 || err != nil {
			t.Errorf("read through the read-only attach = %d, %v; want 9", v, err)
		}
		for name, err := range everyAccessor(ro, 0) {
			write := name != "ReadAt" && name != "Uint32"
			if write && !errors.Is(err, ErrReadOnly) {
				t.Errorf("%s through the read-only attach: err = %v", name, err)
			}
			if !write && err != nil {
				t.Errorf("%s through the read-only attach: %v", name, err)
			}
		}
		// The error comes before the panic of a word that crosses a page.
		if _, err := ro.AddUint32(510, 1); !errors.Is(err, ErrReadOnly) {
			t.Errorf("AddUint32 across pages, read-only: err = %v", err)
		}
		if v, _ := rw.Uint32(0); v != 9 {
			t.Errorf("a refused write changed the word to %d", v)
		}
	}},
	{"across-pages", func(t *testing.T, s surface) {
		a := s.attach(false)
		data := make([]byte, 1024)
		for i := range data {
			data[i] = byte(i * 7)
		}
		if err := a.WriteAt(data, 300); err != nil { // pages 0, 1 and 2
			t.Error(err)
		}
		back := make([]byte, len(data))
		if err := a.ReadAt(back, 300); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(back, data) {
			t.Error("ReadAt did not return what WriteAt wrote across three pages")
		}
		if err := a.SetUint32(1534, 0xA1B2C3D4); err != nil { // two bytes on page 2, two on page 3
			t.Error(err)
		}
		if v, err := a.Uint32(1534); v != 0xA1B2C3D4 || err != nil {
			t.Errorf("Uint32 across a page boundary = %#x, %v", v, err)
		}
		word := make([]byte, 4)
		if err := a.ReadAt(word, 1534); err != nil || !bytes.Equal(word, []byte{0xD4, 0xC3, 0xB2, 0xA1}) {
			t.Errorf("the word's bytes = %x, %v; want little-endian", word, err)
		}
	}},
	{"add", func(t *testing.T, s surface) {
		a := s.attach(false)
		for want := uint32(1); want <= 2; want++ {
			if v, err := a.AddUint32(8, 1); v != want || err != nil {
				t.Errorf("AddUint32 = %d, %v; want %d", v, err, want)
			}
		}
		if v, err := a.AddUint32(8, ^uint32(0)); v != 1 || err != nil {
			t.Errorf("AddUint32 of -1 = %d, %v; want 1", v, err)
		}
		if v, err := a.Uint32(8); v != 1 || err != nil {
			t.Errorf("Uint32 after the adds = %d, %v", v, err)
		}
		// A word that crosses a page is a programming error and panics —
		// after the pages were given back: both take the next access.
		if !panics(func() { a.AddUint32(510, 1) }) {
			t.Error("AddUint32 across a page boundary did not panic")
		}
		for _, off := range []int{508, 512} {
			if v, err := a.AddUint32(off, 1); v != 1 || err != nil {
				t.Errorf("AddUint32(%d) after the panic = %d, %v", off, v, err)
			}
		}
	}},
	{"test-and-set", func(t *testing.T, s surface) {
		a := s.attach(false)
		for _, want := range []byte{0, 1, 1} {
			if old, err := a.TestAndSet(7); old != want || err != nil {
				t.Errorf("TestAndSet = %d, %v; want %d", old, err, want)
			}
		}
		if err := a.Clear(7); err != nil {
			t.Error(err)
		}
		if old, err := a.TestAndSet(7); old != 0 || err != nil {
			t.Errorf("TestAndSet after Clear = %d, %v", old, err)
		}
		b := make([]byte, 3)
		if err := a.ReadAt(b, 6); err != nil || !bytes.Equal(b, []byte{0, 1, 0}) {
			t.Errorf("bytes around the lock = %v, %v", b, err)
		}
	}},
	{"detached", func(t *testing.T, s surface) {
		keep, a := s.attach(false), s.attach(false) // keep: the segment outlives a
		if err := a.SetUint32(0, 1); err != nil {
			t.Error(err)
		}
		if err := s.detach(a); err != nil {
			t.Error(err)
		}
		for name, err := range everyAccessor(a, 0) {
			if !errors.Is(err, ErrDetached) {
				t.Errorf("%s on a detached handle: err = %v", name, err)
			}
		}
		// The error comes before the panic of a word that crosses a page.
		if _, err := a.AddUint32(510, 1); !errors.Is(err, ErrDetached) {
			t.Errorf("AddUint32 across pages, detached: err = %v", err)
		}
		if err := s.detach(a); !errors.Is(err, ErrDetached) {
			t.Errorf("second detach: err = %v", err)
		}
		if v, err := keep.Uint32(0); v != 1 || err != nil {
			t.Errorf("the other attach reads %d, %v", v, err)
		}
	}},
}

// TestAccessConformance runs one table against both access surfaces —
// a simulated process's ipc.Shm and a live mirage.Segment — which share
// mem.Accessor and differ only in its slow path. Every row ends with no
// page left held at any site.
func TestAccessConformance(t *testing.T) {
	for _, on := range []struct {
		name string
		run  func(*testing.T, func(*testing.T, surface))
	}{{"sim", onSim}, {"live", onLive}} {
		for _, row := range conformanceRows {
			on, row := on, row
			t.Run(on.name+"/"+row.name, func(t *testing.T) {
				on.run(t, func(t *testing.T, s surface) {
					row.run(t, s)
					if n := s.held(); n != 0 {
						t.Errorf("%d page words left held", n)
					}
				})
			})
		}
	}
}
