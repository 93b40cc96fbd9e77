package memsys

import (
	"testing"

	"dsm96/internal/sim"
	"dsm96/internal/stats"
)

// BenchmarkFastPathReadHit is the host cost of one shared read that hits
// in both the TLB and the cache: the floor every protocol pays per
// reference, and the bulk of the work on read-heavy applications.
func BenchmarkFastPathReadHit(b *testing.B) {
	n, eng, _ := newTestNode()
	f := NewFastPath(n)
	var st stats.ProcStats
	const span = 16 << 10 // four pages: resident in the TLB and the cache
	eng.NewProc(0, "p", 0, func(p *sim.Proc) {
		for a := Addr(0); a < span; a += 8 {
			f.Read(p, a, &st)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.Read(p, Addr(i*8)&(span-1), &st)
		}
		b.StopTimer()
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	if want := uint64(span / n.Cfg.CacheLineSize); st.CacheMisses != want {
		b.Fatalf("cache misses = %d, want %d (the warm-up fills only)", st.CacheMisses, want)
	}
}
