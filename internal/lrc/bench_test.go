package lrc

import (
	"math/rand"
	"testing"
)

var benchSink uint64

// BenchmarkFramesReadU64 is the host cost of loading one word from a
// node's page frames, which every simulated shared read does after its
// protocol check.
func BenchmarkFramesReadU64(b *testing.B) {
	f := NewFrames(4096)
	const span = 64 << 10 // sixteen resident pages
	for a := int64(0); a < span; a += 8 {
		f.WriteU64(a, uint64(a))
	}
	var sum uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += f.ReadU64(int64(i*8) & (span - 1))
	}
	benchSink = sum
}

// BenchmarkDiffFromVector is the host cost of gathering a diff from a
// snooped write vector (the hardware-diff path of the I+P+D family): a
// 4 KB page with a quarter of its words marked at random.
func BenchmarkDiffFromVector(b *testing.B) {
	const pageWords = 1024
	cur := make([]byte, pageWords*WordBytes)
	vec := NewWriteVector(pageWords)
	rng := rand.New(rand.NewSource(1))
	rng.Read(cur)
	for vec.Count() < pageWords/4 {
		vec.Mark(rng.Intn(pageWords))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := DiffFromVector(0, vec, cur); d.Len() != pageWords/4 {
			b.Fatalf("diff has %d words, want %d", d.Len(), pageWords/4)
		}
	}
}
