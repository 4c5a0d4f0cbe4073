package mmu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// MaxSites is the largest site ID a Copyset can hold, plus one. The
// Mirage prototype ran on 3 VAXs and the first cut of this repo used a
// uint64 mask ("64 sites is ample" — it was not); copysets now carry
// 16-bit members so clusters scale to tens of thousands of simulated
// sites.
const MaxSites = 1 << 16

// ErrTooManySites is returned wherever a cluster is sized beyond what
// a Copyset can represent. Sizing is validated up front so that site
// IDs never silently truncate inside the protocol.
var ErrTooManySites = errors.New("too many sites: copysets hold at most 65536 sites")

// Copyset is a set of site IDs, used as the auxpte "reader mask"
// (paper Table 2), in every per-page library record, and on the wire.
//
// It is the paper's bitmask of sites, widened: site s is bit s&63 of
// word s>>6. Word 0 is held inline in lo, so a set of sites below 64
// never touches the heap, whatever its size; words 1 and up live in
// hi, which is nil or ends in a non-zero word. That one canonical form
// makes reflect.DeepEqual agree with Equal.
//
// It is a value type: every method returns a new set and never
// mutates hi, which sets may therefore share, so a Copyset may be
// copied, stored, and compared like the integer mask it replaces.
type Copyset struct {
	lo uint64   // sites 0-63
	hi []uint64 // hi[i] holds sites 64(i+1) to 64(i+1)+63
}

// CopysetOf builds a Copyset from site IDs.
func CopysetOf(sites ...int) Copyset {
	var c Copyset
	for _, s := range sites {
		c = c.Add(s)
	}
	return c
}

// word returns bitmap word i (sites 64i to 64i+63); zero past the end.
func (c Copyset) word(i int) uint64 {
	switch {
	case i == 0:
		return c.lo
	case i <= len(c.hi):
		return c.hi[i-1]
	}
	return 0
}

// Add returns c with site s added. Site IDs outside [0, MaxSites)
// indicate a sizing bug upstream — cluster construction rejects such
// clusters with ErrTooManySites — and panic here.
func (c Copyset) Add(s int) Copyset {
	if s < 0 || s >= MaxSites {
		panic(fmt.Sprintf("mmu: site %d outside copyset range [0,%d)", s, MaxSites))
	}
	if c.Has(s) {
		return c
	}
	if s < 64 {
		c.lo |= 1 << uint(s)
		return c
	}
	hi := make([]uint64, max(len(c.hi), s>>6))
	copy(hi, c.hi)
	hi[s>>6-1] |= 1 << uint(s&63)
	c.hi = hi
	return c
}

// Remove returns c with site s removed. Removing an absent (or
// out-of-range) site is a no-op.
func (c Copyset) Remove(s int) Copyset {
	if !c.Has(s) {
		return c
	}
	if s < 64 {
		c.lo &^= 1 << uint(s)
		return c
	}
	hi := slices.Clone(c.hi)
	hi[s>>6-1] &^= 1 << uint(s&63)
	for len(hi) > 0 && hi[len(hi)-1] == 0 { // keep hi canonical
		hi = hi[:len(hi)-1]
	}
	if len(hi) == 0 {
		hi = nil
	}
	c.hi = hi
	return c
}

// Has reports whether site s is in the set.
func (c Copyset) Has(s int) bool {
	return s >= 0 && c.word(s>>6)&(1<<uint(s&63)) != 0
}

// Count returns the number of sites in the set.
func (c Copyset) Count() int {
	n := bits.OnesCount64(c.lo)
	for _, w := range c.hi {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no sites.
func (c Copyset) Empty() bool { return c.lo == 0 && c.hi == nil }

// Sites returns the members in ascending order.
func (c Copyset) Sites() []int {
	out := make([]int, 0, c.Count())
	c.ForEach(func(s int) { out = append(out, s) })
	return out
}

// ForEach calls fn for each member in ascending order.
func (c Copyset) ForEach(fn func(s int)) {
	for i := 0; i <= len(c.hi); i++ {
		for v := c.word(i); v != 0; v &= v - 1 {
			fn(i<<6 + bits.TrailingZeros64(v))
		}
	}
}

// combine applies op word by word to c and o.
func (c Copyset) combine(o Copyset, op func(a, b uint64) uint64) Copyset {
	out := Copyset{lo: op(c.lo, o.lo)}
	n := max(len(c.hi), len(o.hi))
	for n > 0 && op(c.word(n), o.word(n)) == 0 {
		n--
	}
	if n > 0 {
		out.hi = make([]uint64, n)
		for i := range out.hi {
			out.hi[i] = op(c.word(i+1), o.word(i+1))
		}
	}
	return out
}

// Union returns the set of sites in either c or o.
func (c Copyset) Union(o Copyset) Copyset {
	return c.combine(o, func(a, b uint64) uint64 { return a | b })
}

// Subtract returns the sites in c that are not in o.
func (c Copyset) Subtract(o Copyset) Copyset {
	return c.combine(o, func(a, b uint64) uint64 { return a &^ b })
}

// Intersect returns the sites present in both c and o.
func (c Copyset) Intersect(o Copyset) Copyset {
	return c.combine(o, func(a, b uint64) uint64 { return a & b })
}

// Equal reports whether c and o contain the same sites.
func (c Copyset) Equal(o Copyset) bool {
	return c.lo == o.lo && slices.Equal(c.hi, o.hi)
}

// String renders the set like "{0,2,5}".
func (c Copyset) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	c.ForEach(func(s int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", s)
	})
	b.WriteByte('}')
	return b.String()
}

// Wire form. A copyset travels as a one-byte tag plus either a list of
// 16-bit big-endian members (csWireList) or big-endian 64-bit bitmap
// words from word 0 up (csWireBitmap). The empty set encodes as zero
// bytes. Encoders pick whichever form is smaller, the list on a tie;
// decoders accept both and canonicalize duplicate or unordered members
// and trailing zero words, so the choice is not protocol.
const (
	csWireList   = 0
	csWireBitmap = 1
)

// MaxCopysetWireLen is the largest legal encoded copyset: a bitmap
// covering all MaxSites sites. Decoders reject longer inputs, bounding
// allocation.
const MaxCopysetWireLen = 1 + 8*(MaxSites/64)

// listForm reports whether c's member list is no longer than its
// bitmap: at most four members per word. It stops counting once the
// list has lost.
func (c Copyset) listForm() bool {
	limit := 4 * (1 + len(c.hi))
	n := bits.OnesCount64(c.lo)
	for _, w := range c.hi {
		if n > limit {
			return false
		}
		n += bits.OnesCount64(w)
	}
	return n <= limit
}

// WireLen returns the number of bytes AppendWire will write.
func (c Copyset) WireLen() int {
	switch {
	case c.Empty():
		return 0
	case c.listForm():
		return 1 + 2*c.Count()
	}
	return 1 + 8*(1+len(c.hi))
}

// AppendWire appends the wire form of c to buf and returns the
// extended slice. It allocates only if buf lacks capacity.
func (c Copyset) AppendWire(buf []byte) []byte {
	switch {
	case c.Empty():
		return buf
	case c.listForm():
		buf = append(buf, csWireList)
		for i := 0; i <= len(c.hi); i++ {
			for v := c.word(i); v != 0; v &= v - 1 {
				buf = binary.BigEndian.AppendUint16(buf, uint16(i<<6+bits.TrailingZeros64(v)))
			}
		}
		return buf
	}
	buf = binary.BigEndian.AppendUint64(append(buf, csWireBitmap), c.lo)
	for _, w := range c.hi {
		buf = binary.BigEndian.AppendUint64(buf, w)
	}
	return buf
}

// DecodeCopysetWire decodes one copyset in the form produced by
// AppendWire; b must be exactly the encoded bytes. A set of sites
// below 64 decodes without allocating, in either form.
func DecodeCopysetWire(b []byte) (Copyset, error) {
	if len(b) == 0 {
		return Copyset{}, nil
	}
	if len(b) > MaxCopysetWireLen {
		return Copyset{}, fmt.Errorf("copyset: %d bytes exceeds max %d", len(b), MaxCopysetWireLen)
	}
	var c Copyset
	body := b[1:]
	switch b[0] {
	case csWireList:
		if len(body) == 0 || len(body)%2 != 0 {
			return Copyset{}, fmt.Errorf("copyset: bad member-list length %d", len(body))
		}
		top := 0
		for i := 0; i < len(body); i += 2 {
			top = max(top, int(binary.BigEndian.Uint16(body[i:])))
		}
		if top >= 64 {
			c.hi = make([]uint64, top>>6)
		}
		for i := 0; i < len(body); i += 2 {
			s := int(binary.BigEndian.Uint16(body[i:]))
			if s < 64 {
				c.lo |= 1 << uint(s)
			} else {
				c.hi[s>>6-1] |= 1 << uint(s&63)
			}
		}
		return c, nil
	case csWireBitmap:
		if len(body) == 0 || len(body)%8 != 0 {
			return Copyset{}, fmt.Errorf("copyset: bad bitmap length %d", len(body))
		}
		c.lo = binary.BigEndian.Uint64(body)
		n := len(body)/8 - 1
		for n > 0 && binary.BigEndian.Uint64(body[8*n:]) == 0 {
			n--
		}
		if n > 0 {
			c.hi = make([]uint64, n)
			for i := range c.hi {
				c.hi[i] = binary.BigEndian.Uint64(body[8*(i+1):])
			}
		}
		return c, nil
	}
	return Copyset{}, fmt.Errorf("copyset: unknown tag %d", b[0])
}
