package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"mirage/internal/mmu"
)

// corpusMsg builds one representative message of the given kind for
// the fuzz seed corpus: every field that kind plausibly uses is
// populated so the corpus exercises the whole header.
func corpusMsg(k Kind) Msg {
	m := Msg{
		Kind: k, Seg: 7, Page: 3, From: 1, Req: 2, Pid: 42,
		Readers: mmu.CopysetOf(0, 2, 3), Delta: 20 * time.Millisecond,
		Seq: 9, Epoch: 2, Cycle: 5,
	}
	switch k {
	case KWriteReq, KInval:
		m.Mode = Write
		m.Upgrade = true
	case KBusy:
		m.Remaining = 13 * time.Millisecond
	case KPageSend, KReleaseWrite, KGrantFail:
		m.Data = bytes.Repeat([]byte{0xa5}, 512)
	case KAppend:
		// A plausible replication log-entry batch (docs/REPLICATION.md):
		// kind, index, page, record; the decoder must stay panic-free on
		// arbitrary corruptions of it.
		m.Data = []byte{
			1, 0, 0, 0, 9, 0, 0, 0, 3, // intent, index 9, page 3
			0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 2, 0, 1, // post record
			255, 255, 255, 255, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, // prior record
		}
	case KVote:
		m.Upgrade = true // final chunk
		m.Data = []byte{0, 0, 0, 2, 0, 0, 0, 9}
	}
	return m
}

// FuzzWireDecode asserts Decode never panics on arbitrary bytes and
// that decoding is stable: whatever Decode accepts, re-encoding and
// re-decoding yields the identical message and length.
func FuzzWireDecode(f *testing.F) {
	for _, k := range Kinds() {
		m := corpusMsg(k)
		f.Add(Encode(nil, &m))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, headerLen+4))
	// Variable-length copyset frames: a multi-word bitmap, truncated section,
	// oversized length field, and duplicate members in a list.
	big := mmu.Copyset{}
	for s := 0; s < 500; s++ {
		big = big.Add(s)
	}
	bigFrame := Encode(nil, &Msg{Kind: KInvalOrder, Seg: 1, Readers: big, Cycle: 3})
	f.Add(bigFrame)
	f.Add(bigFrame[:headerLen+9]) // copyset section cut mid-bitmap
	oversized := Encode(nil, &Msg{Kind: KInvalAck, Readers: mmu.CopysetOf(1)})
	binary.BigEndian.PutUint16(oversized[headerLen-6:], uint16(MaxCopyset+1))
	f.Add(oversized)
	dup := Encode(nil, &Msg{Kind: KInvalFail, Readers: mmu.CopysetOf(4, 9)})
	dup = append(dup, 0, 9, 0, 4, 0, 9) // extra duplicate/unordered members
	binary.BigEndian.PutUint16(dup[headerLen-6:], uint16(5+6))
	f.Add(dup)
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, n, err := Decode(buf)
		if err != nil {
			return
		}
		if n < headerLen || n > len(buf) {
			t.Fatalf("consumed %d of %d", n, len(buf))
		}
		re := Encode(nil, &m)
		m2, n2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if n2 != len(re) {
			t.Fatalf("re-decode consumed %d of %d", n2, len(re))
		}
		// Data aliases its input buffer; compare contents, not headers.
		if !bytes.Equal(m2.Data, m.Data) {
			t.Fatal("data changed across encode/decode")
		}
		m.Data, m2.Data = nil, nil
		if !reflect.DeepEqual(m2, m) {
			t.Fatalf("round trip changed message: %+v vs %+v", m2, m)
		}
	})
}

// TestRoundTripEveryKind pins Decode(Encode(m)) == m for a populated
// message of every kind (the property FuzzWireDecode seeds from).
func TestRoundTripEveryKind(t *testing.T) {
	for _, k := range Kinds() {
		m := corpusMsg(k)
		got, n, err := Decode(Encode(nil, &m))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if n != headerLen+m.Readers.WireLen()+len(m.Data) {
			t.Fatalf("%v: consumed %d", k, n)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%v: got %+v want %+v", k, got, m)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("nonsense"); ok {
		t.Fatal("ParseKind accepted garbage")
	}
	if _, ok := ParseKind("invalid"); ok {
		t.Fatal("ParseKind accepted the zero kind")
	}
}
