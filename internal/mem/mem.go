// Package mem implements the System V shared-memory segment model the
// Mirage interface preserves (paper §2.2): named segments with a size
// and access protection, created and looked up by key, attached into
// process address spaces, destroyed by the last detach.
//
// The Registry is the cluster-wide name space. Locus made naming
// network transparent; the registry models that transparency directly
// (name operations are control-plane and were not part of the paper's
// measured fault paths).
package mem

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Key names a segment, like a System V key_t.
type Key int32

// IPCPrivate is the key that always creates a fresh private segment.
const IPCPrivate Key = 0

// SegID identifies a created segment, like a System V shmid.
type SegID int32

// Flags for GetSegment, mirroring the System V shmget flags.
const (
	// Create makes the segment if no segment has the key.
	Create = 1 << iota
	// Exclusive, with Create, fails if the key already exists.
	Exclusive
)

// Mode bits (a simplified owner/other subset of the UNIX file modes
// the System V interface borrows, §2.2: "limited to read and write
// permissions").
const (
	OwnerRead  = 0o400
	OwnerWrite = 0o200
	OtherRead  = 0o004
	OtherWrite = 0o002
)

// Errors mirroring the System V errno values.
var (
	ErrExists     = errors.New("mem: segment exists (EEXIST)")
	ErrNotFound   = errors.New("mem: no segment for key or id (ENOENT)")
	ErrInvalid    = errors.New("mem: invalid argument (EINVAL)")
	ErrPermission = errors.New("mem: permission denied (EACCES)")
	ErrRemoved    = errors.New("mem: segment removed (EIDRM)")
)

// Segment is the cluster-wide metadata for one shared segment.
type Segment struct {
	ID       SegID
	Key      Key
	Size     int // bytes requested at creation
	PageSize int
	Pages    int // Size rounded up to whole pages
	Library  int // library site: the site that created the segment (§6.0)
	Delta    time.Duration
	Owner    int // creating uid
	Mode     int

	attaches map[int]int // attach count by site, a site dropped at zero
	removed  atomic.Bool // set by the registry's caller, read by accessors without its lock
}

// Removed reports whether the segment has been destroyed.
func (s *Segment) Removed() bool { return s.removed.Load() }

// CanAccess reports whether uid may access the segment; write asks for
// write permission.
func (s *Segment) CanAccess(uid int, write bool) bool {
	bit := OtherRead
	if write {
		bit = OtherWrite
	}
	if uid == s.Owner {
		bit <<= 6 // the owner's bits, two octal digits up
	}
	return s.Mode&bit != 0
}

// Registry is the cluster-wide segment name space.
type Registry struct {
	pageSize     int
	defaultDelta time.Duration
	maxBytes     int
	nextID       SegID
	byKey        map[Key]*Segment
	byID         map[SegID]*Segment
}

// NewRegistry creates a registry creating segments with the given page
// size and default Δ. maxBytes bounds segment size (the paper's VAX
// configurations intersected at 128 KB); zero means unlimited.
func NewRegistry(pageSize int, defaultDelta time.Duration, maxBytes int) *Registry {
	if pageSize <= 0 {
		panic("mem: page size must be positive")
	}
	return &Registry{
		pageSize:     pageSize,
		defaultDelta: defaultDelta,
		maxBytes:     maxBytes,
		nextID:       1,
		byKey:        make(map[Key]*Segment),
		byID:         make(map[SegID]*Segment),
	}
}

// PageSize returns the registry's page size.
func (r *Registry) PageSize() int { return r.pageSize }

// GetSegment locates or creates a segment: the shmget call. site is
// the calling site (it becomes the library site on creation), uid the
// calling user, mode the permission bits for creation.
func (r *Registry) GetSegment(key Key, size int, flags, mode, uid, site int) (*Segment, error) {
	if key != IPCPrivate {
		if s, ok := r.byKey[key]; ok {
			switch {
			case flags&Create != 0 && flags&Exclusive != 0:
				return nil, ErrExists
			case size > s.Size:
				return nil, ErrInvalid
			case !s.CanAccess(uid, false):
				return nil, ErrPermission
			}
			return s, nil
		}
		if flags&Create == 0 {
			return nil, ErrNotFound
		}
	}
	if size <= 0 || r.maxBytes > 0 && size > r.maxBytes {
		return nil, ErrInvalid
	}
	s := &Segment{
		ID:       r.nextID,
		Key:      key,
		Size:     size,
		PageSize: r.pageSize,
		Pages:    (size + r.pageSize - 1) / r.pageSize,
		Library:  site,
		Delta:    r.defaultDelta,
		Owner:    uid,
		Mode:     mode,
		attaches: make(map[int]int),
	}
	r.nextID++
	r.byID[s.ID] = s
	if key != IPCPrivate {
		r.byKey[key] = s
	}
	return s, nil
}

// Attach records one attach of the segment at site (the shmat call),
// checking uid's permission. write requests a read-write attach.
func (r *Registry) Attach(id SegID, site, uid int, write bool) (*Segment, error) {
	s, ok := r.byID[id]
	switch {
	case !ok:
		return nil, ErrNotFound
	case s.Removed():
		return nil, ErrRemoved
	case !s.CanAccess(uid, write):
		return nil, ErrPermission
	}
	s.attaches[site]++
	return s, nil
}

// Detach records one detach at site (the shmdt call) and reports what
// it ended, for the caller to tear down page state: the site's last
// attach (lastHere), and the cluster's, which destroys the segment
// (paper §2.2).
func (r *Registry) Detach(id SegID, site int) (lastHere, destroyed bool, err error) {
	s, ok := r.byID[id]
	if !ok {
		return false, false, ErrNotFound
	}
	if s.attaches[site] <= 0 {
		return false, false, fmt.Errorf("%w: detach with no attach at site %d", ErrInvalid, site)
	}
	s.attaches[site]--
	if s.attaches[site] > 0 {
		return false, false, nil
	}
	delete(s.attaches, site)
	if destroyed = len(s.attaches) == 0; destroyed {
		r.destroy(s)
	}
	return true, destroyed, nil
}

// Remove marks the segment for destruction (shmctl IPC_RMID): it is
// destroyed immediately if unattached, otherwise when the last detach
// occurs. Only the owner may remove.
func (r *Registry) Remove(id SegID, uid int) error {
	s, ok := r.byID[id]
	if !ok {
		return ErrNotFound
	}
	if uid != s.Owner {
		return ErrPermission
	}
	// Hide the name now; an attached segment dies on last detach.
	delete(r.byKey, s.Key)
	if len(s.attaches) == 0 {
		r.destroy(s)
	}
	return nil
}

func (r *Registry) destroy(s *Segment) {
	s.removed.Store(true)
	delete(r.byID, s.ID)
	if cur, ok := r.byKey[s.Key]; ok && cur == s {
		delete(r.byKey, s.Key)
	}
}

// DestroyAll force-destroys every segment (cluster shutdown): handles
// observe Removed and fail cleanly.
func (r *Registry) DestroyAll() {
	for _, s := range r.Segments() {
		r.destroy(s)
	}
}

// Segments returns the live segments, in id order.
func (r *Registry) Segments() []*Segment {
	out := make([]*Segment, 0, len(r.byID))
	for _, s := range r.byID {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
