package mem

import (
	"errors"
	"testing"
	"time"
)

const rw = OwnerRead | OwnerWrite | OtherRead | OtherWrite

func newReg() *Registry { return NewRegistry(512, 20*time.Millisecond, 128*1024) }

// listed reports whether the registry lists s among its live segments.
func listed(r *Registry, s *Segment) bool {
	for _, got := range r.Segments() {
		if got == s {
			return true
		}
	}
	return false
}

func TestCreateAndLookup(t *testing.T) {
	r := newReg()
	s, err := r.GetSegment(0x1234, 2000, Create, rw, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pages != 4 {
		t.Fatalf("2000 bytes should round to 4 pages, got %d", s.Pages)
	}
	if s.Library != 2 {
		t.Fatalf("library site = %d, want creator site 2", s.Library)
	}
	if s.Delta != 20*time.Millisecond {
		t.Fatalf("delta = %v", s.Delta)
	}
	if !listed(r, s) {
		t.Fatalf("created segment %v not listed", s.ID)
	}
	// Second shmget with the same key returns the same segment.
	again, err := r.GetSegment(0x1234, 2000, Create, rw, 100, 0)
	if err != nil || again != s {
		t.Fatalf("re-get: %v %v", again, err)
	}
}

func TestCreateExclusiveFails(t *testing.T) {
	r := newReg()
	if _, err := r.GetSegment(7, 512, Create, rw, 0, 0); err != nil {
		t.Fatal(err)
	}
	_, err := r.GetSegment(7, 512, Create|Exclusive, rw, 0, 0)
	if !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
}

func TestGetWithoutCreateFails(t *testing.T) {
	r := newReg()
	_, err := r.GetSegment(9, 512, 0, rw, 0, 0)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestGetSizeTooBigForExisting(t *testing.T) {
	r := newReg()
	r.GetSegment(7, 512, Create, rw, 0, 0)
	_, err := r.GetSegment(7, 4096, 0, rw, 0, 0)
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
}

func TestPrivateSegmentsAreDistinct(t *testing.T) {
	r := newReg()
	a, err := r.GetSegment(IPCPrivate, 512, Create, rw, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.GetSegment(IPCPrivate, 512, Create, rw, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatal("IPC_PRIVATE must always create a new segment")
	}
}

func TestSizeLimits(t *testing.T) {
	r := newReg()
	if _, err := r.GetSegment(1, 0, Create, rw, 0, 0); !errors.Is(err, ErrInvalid) {
		t.Fatalf("zero size: %v", err)
	}
	if _, err := r.GetSegment(2, 256*1024, Create, rw, 0, 0); !errors.Is(err, ErrInvalid) {
		t.Fatalf("over max: %v", err)
	}
	if _, err := r.GetSegment(3, 128*1024, Create, rw, 0, 0); err != nil {
		t.Fatalf("exactly max: %v", err)
	}
}

func TestPermissions(t *testing.T) {
	r := newReg()
	s, _ := r.GetSegment(5, 512, Create, OwnerRead|OwnerWrite|OtherRead, 100, 0)
	if !s.CanAccess(100, true) || !s.CanAccess(100, false) {
		t.Fatal("owner must have rw")
	}
	if !s.CanAccess(200, false) {
		t.Fatal("other must have read")
	}
	if s.CanAccess(200, true) {
		t.Fatal("other must not have write")
	}
	// Attach enforces permissions.
	if _, err := r.Attach(s.ID, 0, 200, true); !errors.Is(err, ErrPermission) {
		t.Fatalf("attach rw as other: %v", err)
	}
	if _, err := r.Attach(s.ID, 0, 200, false); err != nil {
		t.Fatalf("attach ro as other: %v", err)
	}
}

func TestGetPermissionDenied(t *testing.T) {
	r := newReg()
	r.GetSegment(6, 512, Create, OwnerRead|OwnerWrite, 100, 0)
	_, err := r.GetSegment(6, 512, 0, 0, 200, 0)
	if !errors.Is(err, ErrPermission) {
		t.Fatalf("err = %v", err)
	}
}

// TestLastDetachDestroys: Detach tells a site's last attach from the
// cluster's, and the cluster's destroys the segment.
func TestLastDetachDestroys(t *testing.T) {
	r := newReg()
	s, _ := r.GetSegment(8, 512, Create, rw, 0, 0)
	r.Attach(s.ID, 0, 0, true)
	r.Attach(s.ID, 0, 0, true)
	r.Attach(s.ID, 1, 0, true)
	for i, want := range []struct {
		site                int
		lastHere, destroyed bool
	}{
		{0, false, false}, {0, true, false}, {1, true, true},
	} {
		here, d, err := r.Detach(s.ID, want.site)
		if err != nil || here != want.lastHere || d != want.destroyed {
			t.Fatalf("detach %d at site %d: lastHere=%v destroyed=%v err=%v, want %v %v",
				i, want.site, here, d, err, want.lastHere, want.destroyed)
		}
	}
	if !s.Removed() || listed(r, s) {
		t.Fatal("destroyed segment still live")
	}
	// Key is free for reuse.
	if _, err := r.GetSegment(8, 512, Create|Exclusive, rw, 0, 0); err != nil {
		t.Fatalf("key not released: %v", err)
	}
}

func TestDetachUnattachedFails(t *testing.T) {
	r := newReg()
	s, _ := r.GetSegment(8, 512, Create, rw, 0, 0)
	r.Attach(s.ID, 1, 0, false)
	if _, _, err := r.Detach(s.ID, 0); !errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v", err)
	}
}

func TestAttachRemovedFails(t *testing.T) {
	r := newReg()
	s, _ := r.GetSegment(8, 512, Create, rw, 0, 0)
	r.Attach(s.ID, 0, 0, false)
	r.Detach(s.ID, 0) // destroys
	if _, err := r.Attach(s.ID, 0, 0, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestRemoveImmediateWhenUnattached(t *testing.T) {
	r := newReg()
	s, _ := r.GetSegment(11, 512, Create, rw, 42, 0)
	if err := r.Remove(s.ID, 99); !errors.Is(err, ErrPermission) {
		t.Fatalf("non-owner remove: %v", err)
	}
	if err := r.Remove(s.ID, 42); err != nil {
		t.Fatal(err)
	}
	if listed(r, s) {
		t.Fatal("still present after remove")
	}
}

func TestRemoveDeferredUntilDetach(t *testing.T) {
	r := newReg()
	s, _ := r.GetSegment(12, 512, Create, rw, 0, 0)
	r.Attach(s.ID, 0, 0, true)
	if err := r.Remove(s.ID, 0); err != nil {
		t.Fatal(err)
	}
	// Name hidden immediately.
	if _, err := r.GetSegment(12, 512, 0, rw, 0, 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("key still visible: %v", err)
	}
	// Still attachable by id? The segment lives until last detach.
	if !listed(r, s) {
		t.Fatal("segment should live until last detach")
	}
	_, d, err := r.Detach(s.ID, 0)
	if err != nil || !d {
		t.Fatalf("detach after remove: %v %v", d, err)
	}
}

func TestSegmentsList(t *testing.T) {
	r := newReg()
	r.GetSegment(1, 512, Create, rw, 0, 0)
	r.GetSegment(2, 512, Create, rw, 0, 0)
	if n := len(r.Segments()); n != 2 {
		t.Fatalf("Segments() = %d", n)
	}
}
