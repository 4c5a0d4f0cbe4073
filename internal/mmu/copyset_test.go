package mmu

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestCopysetBasics(t *testing.T) {
	var c Copyset
	if !c.Empty() || c.Count() != 0 {
		t.Fatal("zero copyset should be empty")
	}
	c = c.Add(0).Add(2).Add(5)
	if c.Count() != 3 {
		t.Fatalf("count = %d", c.Count())
	}
	for _, s := range []int{0, 2, 5} {
		if !c.Has(s) {
			t.Fatalf("missing %d", s)
		}
	}
	if c.Has(1) || c.Has(63) || c.Has(65535) {
		t.Fatal("unexpected members")
	}
	c = c.Remove(2)
	if c.Has(2) || c.Count() != 2 {
		t.Fatalf("after remove: %v", c)
	}
	if c.String() != "{0,5}" {
		t.Fatalf("String = %q", c.String())
	}
}

func TestCopysetSitesAndForEach(t *testing.T) {
	c := CopysetOf(7, 1, 63, 1000)
	want := []int{1, 7, 63, 1000}
	if got := c.Sites(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Sites = %v, want %v", got, want)
	}
	var walked []int
	c.ForEach(func(s int) { walked = append(walked, s) })
	if !reflect.DeepEqual(walked, want) {
		t.Fatalf("ForEach = %v", walked)
	}
}

func TestCopysetAddIdempotent(t *testing.T) {
	c := CopysetOf(3).Add(3).Add(3)
	if c.Count() != 1 {
		t.Fatalf("count = %d", c.Count())
	}
	if !c.Remove(9).Equal(c) {
		t.Fatal("removing absent member changed the set")
	}
}

func TestCopysetSpillAndShrink(t *testing.T) {
	// Any number of sites below 64 stays in word 0: no slice.
	low := CopysetOf(10, 20, 30, 40, 50, 60, 61, 62, 63)
	if low.hi != nil || low.Count() != 9 {
		t.Fatalf("sites below 64 should leave hi nil: %#v", low)
	}
	// Site 64 is bit 0 of word 1, the first word of hi.
	c := low.Add(64)
	if len(c.hi) != 1 || c.hi[0] != 1 || c.Count() != 10 {
		t.Fatalf("site 64 should fill hi[0]: %#v", c)
	}
	for _, s := range []int{10, 20, 30, 40, 50, 60, 61, 62, 63, 64} {
		if !c.Has(s) {
			t.Fatalf("set missing %d", s)
		}
	}
	// Removing it gives back the set built without it, hi nil again.
	if got := c.Remove(64); !reflect.DeepEqual(got, low) {
		t.Fatalf("after removing 64: %#v, want %#v", got, low)
	}
}

func TestCopysetValueSemantics(t *testing.T) {
	a := CopysetOf(1, 100, 200, 300, 400, 500, 600) // words in hi
	// One site inside hi's words, one past its end.
	for _, s := range []int{150, 700} {
		if b := a.Add(s); a.Has(s) || !b.Has(s) {
			t.Fatalf("Add(%d) mutated the receiver's shared storage", s)
		}
	}
	d := a.Remove(300)
	if !a.Has(300) || d.Has(300) {
		t.Fatal("Remove mutated the receiver's shared storage")
	}
}

func TestCopysetCanonicalForms(t *testing.T) {
	// The same set reached by different op orders must be DeepEqual.
	a := CopysetOf(5, 900, 70).Add(3).Remove(900)
	b := CopysetOf(3, 5, 70)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("canonical mismatch: %#v vs %#v", a, b)
	}
	// High member removed: trailing words must trim.
	x := CopysetOf(1, 2, 3, 4, 5, 6, 7, 5000).Remove(5000).Add(8)
	y := CopysetOf(1, 2, 3, 4, 5, 6, 7, 8)
	if !reflect.DeepEqual(x, y) {
		t.Fatalf("trim mismatch: %#v vs %#v", x, y)
	}
}

func TestCopysetUnionSubtract(t *testing.T) {
	a := CopysetOf(1, 2, 3)
	b := CopysetOf(3, 4, 5000)
	u := a.Union(b)
	if !u.Equal(CopysetOf(1, 2, 3, 4, 5000)) {
		t.Fatalf("union = %v", u)
	}
	if got := a.Subtract(b); !got.Equal(CopysetOf(1, 2)) {
		t.Fatalf("subtract = %v", got)
	}
	big := CopysetOf(10, 11, 12, 13, 14, 15, 16, 17)
	if got := big.Subtract(CopysetOf(12, 16, 99)); !got.Equal(CopysetOf(10, 11, 13, 14, 15, 17)) {
		t.Fatalf("8-member subtract = %v", got)
	}
	if got := big.Union(Copyset{}); !got.Equal(big) {
		t.Fatal("union with empty changed the set")
	}
	if got := a.Intersect(b); !got.Equal(CopysetOf(3)) {
		t.Fatalf("intersect = %v", got)
	}
	if got := big.Intersect(CopysetOf(11, 17, 5000)); !got.Equal(CopysetOf(11, 17)) {
		t.Fatalf("8-member intersect = %v", got)
	}
	if got := big.Intersect(Copyset{}); !got.Empty() {
		t.Fatalf("intersect with empty = %v", got)
	}
}

func TestCopysetOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add past MaxSites must panic")
		}
	}()
	CopysetOf(MaxSites)
}

// TestCopysetOracle drives randomized add/remove/union/subtract/iterate
// sequences against a naive map[int]bool reference.
func TestCopysetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		c := Copyset{}
		ref := map[int]bool{}
		// Mix of tight site IDs (forces dup hits in word 0) and sparse
		// high IDs (forces multi-word bitmaps that grow and trim).
		site := func() int {
			if rng.Intn(2) == 0 {
				return rng.Intn(10)
			}
			return rng.Intn(MaxSites)
		}
		for op := 0; op < 300; op++ {
			switch rng.Intn(11) {
			case 0, 1, 2, 3:
				s := site()
				c = c.Add(s)
				ref[s] = true
			case 4, 5, 6:
				s := site()
				c = c.Remove(s)
				delete(ref, s)
			case 7:
				var other Copyset
				for i := rng.Intn(9); i > 0; i-- {
					s := site()
					other = other.Add(s)
					ref[s] = true
				}
				c = c.Union(other)
			case 8:
				var other Copyset
				for i := rng.Intn(4); i > 0; i-- {
					s := site()
					other = other.Add(s)
					delete(ref, s)
				}
				c = c.Subtract(other)
			case 9:
				// Intersect with a set built from half the current
				// members plus noise; the oracle keeps the overlap.
				var other Copyset
				for s := range ref {
					if rng.Intn(2) == 0 {
						other = other.Add(s)
					}
				}
				for i := rng.Intn(4); i > 0; i-- {
					other = other.Add(site())
				}
				c = c.Intersect(other)
				for s := range ref {
					if !other.Has(s) {
						delete(ref, s)
					}
				}
			case 10:
				// Wire round trip mid-sequence.
				enc := c.AppendWire(nil)
				if len(enc) != c.WireLen() {
					t.Fatalf("WireLen %d != encoded %d", c.WireLen(), len(enc))
				}
				dec, err := DecodeCopysetWire(enc)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if !reflect.DeepEqual(dec, c) {
					t.Fatalf("wire round trip: %#v vs %#v", dec, c)
				}
			}
		}
		if c.Count() != len(ref) {
			t.Fatalf("trial %d: count %d != oracle %d", trial, c.Count(), len(ref))
		}
		prev := -1
		n := 0
		c.ForEach(func(s int) {
			if s <= prev {
				t.Fatalf("trial %d: iteration not strictly ascending: %d after %d", trial, s, prev)
			}
			if !ref[s] {
				t.Fatalf("trial %d: iterated phantom member %d", trial, s)
			}
			prev = s
			n++
		})
		if n != len(ref) {
			t.Fatalf("trial %d: iterated %d members, oracle has %d", trial, n, len(ref))
		}
		for s := range ref {
			if !c.Has(s) {
				t.Fatalf("trial %d: missing member %d", trial, s)
			}
		}
		if !canonical(c) {
			t.Fatalf("trial %d: hi not canonical: %#v", trial, c)
		}
	}
}

// The raw inputs TestCopysetWireDecodeTolerance decodes; they also
// seed FuzzCopysetWire.
var (
	// Duplicate and unordered list members.
	dupList = []byte{csWireList, 0, 9, 0, 5, 0, 9, 0, 5, 0, 1, 0, 9, 0, 9}
	// A bitmap with a trailing zero word.
	paddedBitmap = []byte{csWireBitmap, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0}
	malformed    = [][]byte{
		{csWireList},                      // empty member list
		{csWireList, 0, 1, 0},             // odd member bytes
		{csWireBitmap, 1, 2, 3},           // partial word
		{2, 0, 0},                         // unknown tag
		make([]byte, MaxCopysetWireLen+1), // oversized
	}
)

// canonical reports whether c's hi is nil or ends in a non-zero word,
// the form every operation must leave.
func canonical(c Copyset) bool {
	return c.hi == nil || (len(c.hi) > 0 && c.hi[len(c.hi)-1] != 0)
}

func TestCopysetWireDecodeTolerance(t *testing.T) {
	// Duplicate and unordered list members collapse to set semantics.
	c, err := DecodeCopysetWire(dupList)
	if err != nil {
		t.Fatalf("decode dup list: %v", err)
	}
	if !reflect.DeepEqual(c, CopysetOf(1, 5, 9)) {
		t.Fatalf("dup list = %v", c)
	}
	// Bitmap with trailing zero words canonicalizes.
	c, err = DecodeCopysetWire(paddedBitmap)
	if err != nil {
		t.Fatalf("decode bitmap: %v", err)
	}
	if !reflect.DeepEqual(c, CopysetOf(1, 2)) {
		t.Fatalf("bitmap = %v", c)
	}
	for _, bad := range malformed {
		if _, err := DecodeCopysetWire(bad); err == nil {
			t.Fatalf("decode accepted malformed %v", bad)
		}
	}
}

// FuzzCopysetWire decodes arbitrary bytes. Whatever decodes must
// re-encode to bytes that decode to the same set, in no more bytes
// than it came in, with WireLen saying how many, and in canonical form.
func FuzzCopysetWire(f *testing.F) {
	f.Add(dupList)
	f.Add(paddedBitmap)
	for _, b := range malformed[:len(malformed)-1] {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := DecodeCopysetWire(b)
		if err != nil {
			return
		}
		if !canonical(c) {
			t.Fatalf("decoded hi not canonical: %#v", c)
		}
		enc := c.AppendWire(nil)
		if len(enc) != c.WireLen() {
			t.Fatalf("WireLen %d != encoded %d", c.WireLen(), len(enc))
		}
		if len(enc) > len(b) {
			t.Fatalf("re-encoding %d bytes is longer than the input's %d", len(enc), len(b))
		}
		again, err := DecodeCopysetWire(enc)
		if err != nil || !reflect.DeepEqual(again, c) {
			t.Fatalf("re-encoding decodes to %#v (%v), want %#v", again, err, c)
		}
	})
}

func TestCopysetWirePicksSmallerForm(t *testing.T) {
	dense := CopysetOf()
	for s := 0; s < 100; s++ {
		dense = dense.Add(s)
	}
	sparse := CopysetOf(1, 5000, 10000, 20000, 30000, 40000, 50000)
	for _, tc := range []struct {
		name string
		c    Copyset
		tag  byte
		want int
	}{
		{"dense 100-member set: a 2-word bitmap", dense, csWireBitmap, 1 + 8*2},
		{"sparse 7-member set: a member list", sparse, csWireList, 1 + 2*7},
		{"6 members below 64: a 1-word bitmap", CopysetOf(0, 1, 2, 3, 4, 5), csWireBitmap, 1 + 8},
		{"4 members below 64: the list on a tie", CopysetOf(0, 1, 2, 3), csWireList, 1 + 2*4},
	} {
		enc := tc.c.AppendWire(nil)
		if len(enc) != tc.want || tc.c.WireLen() != tc.want || enc[0] != tc.tag {
			t.Fatalf("%s: encoded %d bytes with tag %d, WireLen %d, want %d with tag %d",
				tc.name, len(enc), enc[0], tc.c.WireLen(), tc.want, tc.tag)
		}
		dec, err := DecodeCopysetWire(enc)
		if err != nil || !reflect.DeepEqual(dec, tc.c) {
			t.Fatalf("%s: round trip failed: %v %v", tc.name, err, dec)
		}
	}
}

// Alloc gates: the protocol hot paths add to, iterate, and encode
// copysets on every fault. A set of sites below 64, of any size, must
// stay heap-free in every operation, and iterating or encoding a set
// with words in hi must not allocate beyond the buffer.
func TestCopysetAllocGates(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		c := CopysetOf(1).Add(3).Add(5).Remove(3).Add(2)
		if c.Count() != 3 {
			t.Fatal("bad count")
		}
	}); n != 0 {
		t.Fatalf("small add/remove allocates %v/run", n)
	}
	seven := CopysetOf(1, 9, 17, 25, 33, 41, 49)
	var full Copyset
	for s := 0; s < 64; s++ {
		full = full.Add(s)
	}
	buf := make([]byte, 0, MaxCopysetWireLen)
	for _, c := range []Copyset{seven, full} {
		if n := testing.AllocsPerRun(100, func() {
			d := c.Remove(9).Add(9)
			u := d.Union(seven).Subtract(CopysetOf(17)).Intersect(full)
			if !d.Equal(c) || u.Has(17) || !u.Has(9) {
				t.Fatal("bad set algebra")
			}
			buf = c.AppendWire(buf[:0])
			dec, err := DecodeCopysetWire(buf)
			if err != nil || !dec.Equal(c) {
				t.Fatal("bad round trip")
			}
			buf = append(buf[:0], csWireList, 0, 63, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6)
			if _, err := DecodeCopysetWire(buf); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("%d-member set below 64 allocates %v/run", c.Count(), n)
		}
	}
	wide := CopysetOf(0)
	for s := 10; s < 1010; s++ {
		wide = wide.Add(s)
	}
	sum := 0
	if n := testing.AllocsPerRun(100, func() {
		seven.ForEach(func(s int) { sum += s })
		wide.ForEach(func(s int) { sum += s })
	}); n != 0 {
		t.Fatalf("iterate allocates %v/run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf = seven.AppendWire(buf[:0])
		buf = wide.AppendWire(buf[:0])
	}); n != 0 {
		t.Fatalf("AppendWire into sized buffer allocates %v/run", n)
	}
}
