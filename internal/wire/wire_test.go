package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"mirage/internal/mmu"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := Msg{
		Kind:      KInval,
		Mode:      Write,
		Upgrade:   true,
		Seg:       3,
		Page:      17,
		From:      1,
		Req:       2,
		Readers:   mmu.CopysetOf(0, 1, 3),
		Delta:     33 * time.Millisecond,
		Remaining: 5 * time.Millisecond,
		SegEpoch:  7,
	}
	buf := Encode(nil, &m)
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("got %+v, want %+v", got, m)
	}
}

func TestEncodeDecodeWithData(t *testing.T) {
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i)
	}
	m := Msg{Kind: KPageSend, Mode: Read, Seg: 1, Page: 2, From: 0, Delta: time.Second, Data: data}
	buf := Encode(nil, &m)
	got, n, err := Decode(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: %v n=%d", err, n)
	}
	if !bytes.Equal(got.Data, data) {
		t.Fatal("data corrupted")
	}
	if m.Size() != NetBufBytes {
		t.Fatalf("Size = %d, want one full network buffer", m.Size())
	}
	short := Msg{Kind: KReadReq}
	if short.Size() != 0 {
		t.Fatalf("short Size = %d", short.Size())
	}
	big := Msg{Kind: KPageSend, Data: make([]byte, 2000)}
	if big.Size() != 2000 {
		t.Fatalf("big Size = %d", big.Size())
	}
}

func TestDecodeTruncated(t *testing.T) {
	m := Msg{Kind: KReadReq, Seg: 1}
	buf := Encode(nil, &m)
	for i := 0; i < len(buf); i++ {
		if _, _, err := Decode(buf[:i]); !errors.Is(err, ErrShort) {
			t.Fatalf("truncated at %d: err = %v", i, err)
		}
	}
}

func TestDecodeTruncatedData(t *testing.T) {
	m := Msg{Kind: KPageSend, Data: make([]byte, 100)}
	buf := Encode(nil, &m)
	if _, _, err := Decode(buf[:len(buf)-1]); !errors.Is(err, ErrShort) {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeBadKind(t *testing.T) {
	m := Msg{Kind: KReadReq}
	buf := Encode(nil, &m)
	buf[0] = 0 // KInvalid
	if _, _, err := Decode(buf); !errors.Is(err, ErrBadKind) {
		t.Fatalf("err = %v", err)
	}
	buf[0] = byte(kindCount)
	if _, _, err := Decode(buf); !errors.Is(err, ErrBadKind) {
		t.Fatalf("err = %v", err)
	}
}

func TestDecodeBadLength(t *testing.T) {
	m := Msg{Kind: KPageSend, Data: []byte{1}}
	buf := Encode(nil, &m)
	buf[headerLen-4] = 0xFF // huge length
	buf[headerLen-3] = 0xFF
	buf[headerLen-2] = 0xFF
	buf[headerLen-1] = 0xFF
	if _, _, err := Decode(buf); !errors.Is(err, ErrBadLen) {
		t.Fatalf("err = %v", err)
	}
}

func TestCopysetSectionRoundTrip(t *testing.T) {
	big := mmu.Copyset{}
	for s := 0; s < 1000; s++ {
		big = big.Add(s)
	}
	for _, cs := range []mmu.Copyset{
		{},
		mmu.CopysetOf(5),
		mmu.CopysetOf(1, 2, 3, 4, 5, 6),
		mmu.CopysetOf(0, 1000, 65535),
		big,
	} {
		m := Msg{Kind: KInvalOrder, Seg: 1, Page: 2, Readers: cs, Cycle: 9}
		buf := Encode(nil, &m)
		if len(buf) != m.EncodedLen() {
			t.Fatalf("EncodedLen %d != encoded %d", m.EncodedLen(), len(buf))
		}
		got, n, err := Decode(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("decode: %v n=%d", err, n)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("got %+v, want %+v", got, m)
		}
	}
}

func TestDecodeBadCopyset(t *testing.T) {
	m := Msg{Kind: KInvalOrder, Readers: mmu.CopysetOf(1, 2)}
	buf := Encode(nil, &m)
	// Corrupt the copyset tag byte.
	buf[headerLen] = 7
	if _, _, err := Decode(buf); !errors.Is(err, ErrBadCopyset) {
		t.Fatalf("bad tag: err = %v", err)
	}
	// Oversized copyset-length field.
	buf = Encode(nil, &m)
	buf[headerLen-6] = 0xFF
	buf[headerLen-5] = 0xFF
	if _, _, err := Decode(buf); !errors.Is(err, ErrBadCopyset) {
		t.Fatalf("oversized: err = %v", err)
	}
	// Copyset length that does not open a valid member list (odd bytes).
	buf = Encode(nil, &m)
	buf[headerLen-6] = 0
	buf[headerLen-5] = 4 // claims 4 bytes: tag + 3 member bytes
	if _, _, err := Decode(buf[:headerLen+4]); !errors.Is(err, ErrBadCopyset) {
		t.Fatalf("odd list: err = %v", err)
	}
}

func TestAppendFrameRoundTrip(t *testing.T) {
	msgs := []Msg{
		{Kind: KReadReq, Seg: 1, Page: 2, From: 3},
		{Kind: KPageSend, Seg: 1, Page: 2, Data: []byte{9, 8, 7}},
		{Kind: KBusy, Remaining: time.Millisecond},
	}
	var buf []byte
	for i := range msgs {
		buf = AppendFrame(buf, &msgs[i])
	}
	// Each frame is a 4-byte big-endian length followed by exactly that
	// many encoded bytes, and the payload decodes to the original.
	off := 0
	for i := range msgs {
		if len(buf)-off < 4 {
			t.Fatalf("frame %d: short prefix", i)
		}
		n := int(buf[off])<<24 | int(buf[off+1])<<16 | int(buf[off+2])<<8 | int(buf[off+3])
		if n != msgs[i].EncodedLen() {
			t.Fatalf("frame %d: prefix %d, want %d", i, n, msgs[i].EncodedLen())
		}
		got, used, err := Decode(buf[off+4 : off+4+n])
		if err != nil || used != n {
			t.Fatalf("frame %d: decode: %v used=%d", i, err, used)
		}
		if got.Kind != msgs[i].Kind || !bytes.Equal(got.Data, msgs[i].Data) {
			t.Fatalf("frame %d: got %+v", i, got)
		}
		off += 4 + n
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d", off, len(buf))
	}
}

func TestCloneData(t *testing.T) {
	src := Encode(nil, &Msg{Kind: KPageSend, Data: []byte{1, 2, 3}})
	m, _, err := Decode(src)
	if err != nil {
		t.Fatal(err)
	}
	clone := m.CloneData()
	src[headerLen] = 99 // corrupt the buffer the decode aliased
	if m.Data[0] != 99 {
		t.Fatal("Decode must alias Data into the input buffer")
	}
	if clone[0] != 1 || clone[1] != 2 || clone[2] != 3 {
		t.Fatalf("clone affected by buffer reuse: %v", clone)
	}
	empty := Msg{}
	if empty.CloneData() != nil {
		t.Fatal("CloneData of data-free message must be nil")
	}
}

func TestDecodeStream(t *testing.T) {
	// Multiple messages back to back decode in sequence.
	var buf []byte
	msgs := []Msg{
		{Kind: KReadReq, Seg: 1, Page: 2, From: 3},
		{Kind: KPageSend, Seg: 1, Page: 2, Data: []byte{9, 8, 7}},
		{Kind: KBusy, Remaining: time.Millisecond},
	}
	for i := range msgs {
		buf = Encode(buf, &msgs[i])
	}
	off := 0
	for i := range msgs {
		got, n, err := Decode(buf[off:])
		if err != nil {
			t.Fatalf("msg %d: %v", i, err)
		}
		off += n
		if got.Kind != msgs[i].Kind {
			t.Fatalf("msg %d kind = %v", i, got.Kind)
		}
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d", off, len(buf))
	}
}

func TestNegativeFieldsSurvive(t *testing.T) {
	m := Msg{Kind: KInstalled, Seg: -1, Page: -2, From: -3, Req: -4}
	got, _, err := Decode(Encode(nil, &m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seg != -1 || got.Page != -2 || got.From != -3 || got.Req != -4 {
		t.Fatalf("got %+v", got)
	}
}

func TestKindAndModeStrings(t *testing.T) {
	if KPageSend.String() != "page-send" || KReadReq.String() != "read-req" {
		t.Fatal("kind names wrong")
	}
	if Kind(200).String() == "" {
		t.Fatal("unknown kind must render")
	}
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("mode names wrong")
	}
}

func TestMsgStringCoversKinds(t *testing.T) {
	for k := KReadReq; k < kindCount; k++ {
		m := Msg{Kind: k, Data: []byte{1}}
		if m.String() == "" {
			t.Fatalf("empty String for %v", k)
		}
	}
}

func randCopyset(rng *rand.Rand) mmu.Copyset {
	var c mmu.Copyset
	n := rng.Intn(12)
	if rng.Intn(8) == 0 {
		n = rng.Intn(2000) // occasionally a big multi-word set
	}
	for ; n > 0; n-- {
		c = c.Add(rng.Intn(mmu.MaxSites))
	}
	return c
}

func randMsg(rng *rand.Rand) Msg {
	m := Msg{
		Kind:      Kind(1 + rng.Intn(int(kindCount)-1)),
		Mode:      Mode(rng.Intn(2)),
		Upgrade:   rng.Intn(2) == 0,
		Seg:       rng.Int31(),
		Page:      rng.Int31(),
		From:      rng.Int31(),
		Req:       rng.Int31(),
		Pid:       rng.Int31(),
		Readers:   randCopyset(rng),
		Delta:     time.Duration(rng.Int63n(1 << 40)),
		Remaining: time.Duration(rng.Int63n(1 << 40)),
		SegEpoch:  rng.Uint32(),
	}
	if rng.Intn(2) == 0 {
		m.Data = make([]byte, rng.Intn(2048))
		rng.Read(m.Data)
	}
	return m
}

// Property: Encode/Decode round-trips arbitrary messages exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randMsg(rng)
		got, n, err := Decode(Encode(nil, &m))
		if err != nil {
			return false
		}
		if n != headerLen+m.Readers.WireLen()+len(m.Data) {
			return false
		}
		if len(m.Data) == 0 {
			m.Data = nil
		}
		if !bytes.Equal(got.Data, m.Data) {
			return false
		}
		got.Data, m.Data = nil, nil
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode never panics on arbitrary bytes.
func TestQuickDecodeNoPanic(t *testing.T) {
	f := func(buf []byte) bool {
		_, n, err := Decode(buf)
		if err == nil && (n < headerLen || n > len(buf)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
