package mmu

import "testing"

// Copyset microbenches. "Inline" sets hold only sites below 64, all in
// the word held inline: the paper's common case (§7.2, a handful of
// readers). "Spilled" sets reach past site 63 into the slice of higher
// words: 100-1000-site fan-out. The names predate the one bitmap and
// are kept so runs stay comparable across it.

func BenchmarkCopysetAddInline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := Copyset{}
		c = c.Add(3).Add(1).Add(5).Add(2)
		if c.Count() != 4 {
			b.Fatal("bad count")
		}
	}
}

func BenchmarkCopysetAddSpilled(b *testing.B) {
	base := CopysetOf(0, 100, 200, 300, 400, 500, 600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := base.Add(700)
		if c.Count() != 8 {
			b.Fatal("bad count")
		}
	}
}

func benchIterate(b *testing.B, c Copyset) {
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		c.ForEach(func(s int) { sum += s })
	}
	_ = sum
}

func BenchmarkCopysetIterateInline(b *testing.B) {
	benchIterate(b, CopysetOf(1, 2, 3, 4, 5))
}

func BenchmarkCopysetIterateSpilled1000(b *testing.B) {
	c := Copyset{}
	for s := 0; s < 1000; s++ {
		c = c.Add(s)
	}
	benchIterate(b, c)
}

func BenchmarkCopysetHasInline(b *testing.B) {
	c := CopysetOf(1, 2, 3, 4, 5)
	for i := 0; i < b.N; i++ {
		if !c.Has(3) || c.Has(9) {
			b.Fatal("bad membership")
		}
	}
}

func BenchmarkCopysetHasSpilled(b *testing.B) {
	c := Copyset{}
	for s := 0; s < 1000; s++ {
		c = c.Add(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Has(999) || c.Has(2000) {
			b.Fatal("bad membership")
		}
	}
}

func BenchmarkCopysetWireEncode1000(b *testing.B) {
	c := Copyset{}
	for s := 0; s < 1000; s++ {
		c = c.Add(s)
	}
	buf := make([]byte, 0, MaxCopysetWireLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.AppendWire(buf[:0])
	}
	_ = buf
}
