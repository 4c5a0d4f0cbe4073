package wire

import (
	"testing"
	"time"

	"mirage/internal/mmu"
)

// benchMsg is a representative control message (the dominant traffic
// class: header only, no page data).
func benchMsg() Msg {
	return Msg{
		Kind:    KInval,
		Mode:    Write,
		Seg:     3,
		Page:    17,
		From:    1,
		Req:     2,
		Readers: mmu.CopysetOf(0, 1, 3),
		Delta:   33 * time.Millisecond,
		Seq:     42,
	}
}

// benchInvalMsg is the scale-path control message: a KInval whose
// copyset spans 1000 reader sites (a 16-word bitmap on the wire).
func benchInvalMsg() Msg {
	var readers mmu.Copyset
	for s := 0; s < 1000; s++ {
		readers = readers.Add(s)
	}
	return Msg{Kind: KInval, Mode: Write, Seg: 3, Page: 17, From: 1, Req: 2,
		Readers: readers, Delta: 33 * time.Millisecond, Seq: 42}
}

// benchPageMsg is the large traffic class: a 512-byte page in flight.
func benchPageMsg() Msg {
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i)
	}
	return Msg{Kind: KPageSend, Mode: Read, Seg: 1, Page: 2, Delta: time.Second, Data: data}
}

func BenchmarkEncode(b *testing.B) {
	m := benchMsg()
	buf := make([]byte, 0, MaxFrame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], &m)
	}
	_ = buf
}

func BenchmarkEncodePage(b *testing.B) {
	m := benchPageMsg()
	buf := make([]byte, 0, MaxFrame)
	b.SetBytes(int64(m.EncodedLen()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], &m)
	}
	_ = buf
}

func BenchmarkEncodeInval1000(b *testing.B) {
	m := benchInvalMsg()
	buf := make([]byte, 0, MaxFrame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], &m)
	}
	_ = buf
}

func BenchmarkDecode(b *testing.B) {
	m := benchMsg()
	buf := Encode(nil, &m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodePage(b *testing.B) {
	m := benchPageMsg()
	buf := Encode(nil, &m)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendFrame is the transport send path's encode unit: one
// length-prefixed frame appended to a TCP circuit's staged chunk.
func BenchmarkAppendFrame(b *testing.B) {
	m := benchMsg()
	buf := make([]byte, 0, MaxFrame)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], &m)
	}
}

// The codec hot paths must stay allocation-free: these are the
// acceptance gates for the pooled/appending API, enforced as tests so
// a regression fails CI rather than just drifting a benchmark number.

func TestEncodeAllocFree(t *testing.T) {
	m := benchPageMsg()
	buf := make([]byte, 0, MaxFrame)
	if n := testing.AllocsPerRun(100, func() {
		buf = Encode(buf[:0], &m)
	}); n != 0 {
		t.Fatalf("Encode into sized buffer: %v allocs/op, want 0", n)
	}
}

func TestEncodeInval1000AllocFree(t *testing.T) {
	m := benchInvalMsg()
	buf := make([]byte, 0, MaxFrame)
	if n := testing.AllocsPerRun(100, func() {
		buf = Encode(buf[:0], &m)
	}); n != 0 {
		t.Fatalf("Encode of 1000-reader KInval: %v allocs/op, want 0", n)
	}
}

func TestDecodeAllocFree(t *testing.T) {
	m := benchPageMsg()
	buf := Encode(nil, &m)
	if n := testing.AllocsPerRun(100, func() {
		if _, _, err := Decode(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Decode: %v allocs/op, want 0 (Data must alias, not copy)", n)
	}
}

// TestAppendFramePooledAllocFree: a frame appended to a buffer with
// room for it — a TCP circuit's staged chunk, borrowed from the pool
// its readers share — allocates nothing.
func TestAppendFramePooledAllocFree(t *testing.T) {
	m := benchMsg()
	buf := make([]byte, 0, MaxFrame)
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendFrame(buf[:0], &m)
	}); n != 0 {
		t.Fatalf("AppendFrame into a recycled buffer: %v allocs/op, want 0", n)
	}
}
