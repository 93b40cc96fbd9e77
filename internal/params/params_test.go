package params

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// TestTable1Defaults pins every value from Table 1 of the paper.
func TestTable1Defaults(t *testing.T) {
	c := Default()
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"Processors", int64(c.Processors), 16},
		{"TLBSize", int64(c.TLBSize), 128},
		{"TLBFillTime", c.TLBFillTime, 100},
		{"InterruptTime", c.InterruptTime, 400},
		{"PageSize", int64(c.PageSize), 4096},
		{"CacheSize", int64(c.CacheSize), 128 * 1024},
		{"WriteBufferSize", int64(c.WriteBufferSize), 4},
		{"WriteCacheSize", int64(c.WriteCacheSize), 4},
		{"CacheLineSize", int64(c.CacheLineSize), 32},
		{"MemSetupTime", c.MemSetupTime, 10},
		{"MemCyclesPerWord", c.MemCyclesPerWord, 3},
		{"PCISetupTime", c.PCISetupTime, 10},
		{"PCICyclesPerWord", c.PCICyclesPerWord, 3},
		{"MessagingOverhead", c.MessagingOverhead, 200},
		{"SwitchLatency", c.SwitchLatency, 4},
		{"WireLatency", c.WireLatency, 2},
		{"ListProcessing", c.ListProcessing, 6},
		{"TwinCyclesPerWord", c.TwinCyclesPerWord, 5},
		{"DiffCyclesPerWord", c.DiffCyclesPerWord, 7},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %d, want %d", ck.name, ck.got, ck.want)
		}
	}
	if c.NetPathBytesPerCycle != 1.0 {
		t.Errorf("NetPathBytesPerCycle = %v, want 1.0 (8-bit path)", c.NetPathBytesPerCycle)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

// Validate catches each inconsistency with an error naming what is
// wrong. Page, line and cache geometry must be powers of two: every
// shared reference decodes its address with shifts and masks.
func TestValidateCatchesBadConfigs(t *testing.T) {
	mutations := []struct {
		want string
		mut  func(*Config)
	}{
		{"Processors", func(c *Config) { c.Processors = 0 }},
		{"PageSize", func(c *Config) { c.PageSize = 0 }},
		{"PageSize", func(c *Config) { c.PageSize = 4097 }},
		{"PageSize", func(c *Config) { c.PageSize = 4100 }},
		{"CacheLineSize", func(c *Config) { c.CacheLineSize = 0 }},
		{"CacheLineSize", func(c *Config) { c.CacheLineSize = 48 }},
		{"CacheSize", func(c *Config) { c.CacheSize = 100 }}, // not a multiple of line
		{"CacheSize", func(c *Config) { c.CacheSize, c.CacheLineSize = 96*1024, 32 }},
		{"TLBSize", func(c *Config) { c.TLBSize = 0 }},
		{"WriteBufferSize", func(c *Config) { c.WriteBufferSize = 0 }},
		{"WriteCacheSize", func(c *Config) { c.WriteCacheSize = -1 }},
		{"NetPathBytesPerCycle", func(c *Config) { c.NetPathBytesPerCycle = 0 }},
		{"memory timing", func(c *Config) { c.MemCyclesPerWord = 0 }},
		{"DMA full cost", func(c *Config) { c.DMADiffFullCycles = 10 }},
	}
	for i, m := range mutations {
		c := Default()
		m.mut(&c)
		if err := c.Validate(); err == nil || !strings.Contains(err.Error(), m.want) {
			t.Errorf("mutation %d: err = %v, want one naming %s", i, err, m.want)
		}
	}
}

// Property: PageOf and PageOffset agree with division and remainder for
// every power-of-two page size.
func TestPageDecodeProperty(t *testing.T) {
	f := func(raw uint32, shift uint8) bool {
		c := Default()
		c.PageSize = 4 << (shift % 12)
		addr := int64(raw)
		return c.PageOf(addr) == int(addr)/c.PageSize && c.PageOffset(addr) == int(addr)%c.PageSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMeshScales checks the big-mesh configs: only the node count
// changes, and every size validates.
func TestMeshScales(t *testing.T) {
	for _, n := range []int{64, 128, 256} {
		c := Mesh(n)
		if c.Processors != n {
			t.Errorf("Mesh(%d).Processors = %d", n, c.Processors)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("Mesh(%d) invalid: %v", n, err)
		}
		c.Processors = Default().Processors
		if c != Default() {
			t.Errorf("Mesh(%d) changed a parameter other than Processors", n)
		}
	}
}

func TestDerivedTimings(t *testing.T) {
	c := Default()
	if got := c.PageWords(); got != 1024 {
		t.Errorf("PageWords = %d, want 1024", got)
	}
	if got := c.LineWords(); got != 8 {
		t.Errorf("LineWords = %d, want 8", got)
	}
	if got := c.MemLineTime(); got != 10+3*8 {
		t.Errorf("MemLineTime = %d, want 34", got)
	}
	if got := c.MemWordTime(); got != 13 {
		t.Errorf("MemWordTime = %d, want 13", got)
	}
	if got := c.MemBlockTime(4096); got != 10+3*1024 {
		t.Errorf("MemBlockTime(4096) = %d, want 3082", got)
	}
	if got := c.MemBlockTime(0); got != 0 {
		t.Errorf("MemBlockTime(0) = %d, want 0", got)
	}
	if got := c.PCIBlockTime(32); got != 10+3*8 {
		t.Errorf("PCIBlockTime(32) = %d, want 34", got)
	}
	if got := c.NetTransferTime(4096); got != 4096 {
		t.Errorf("NetTransferTime(4096) = %d, want 4096 at 1 B/cycle", got)
	}
}

// TestDMADiffEndpoints pins the paper's measured endpoints: ~200 cycles
// for an all-clean 4 KB page, ~2100 cycles when every word was written.
func TestDMADiffEndpoints(t *testing.T) {
	c := Default()
	if got := c.DMADiffTime(0, 1024); got != 200 {
		t.Errorf("DMADiffTime(0) = %d, want 200", got)
	}
	if got := c.DMADiffTime(1024, 1024); got != 2100 {
		t.Errorf("DMADiffTime(full) = %d, want 2100", got)
	}
	mid := c.DMADiffTime(512, 1024)
	if mid <= 200 || mid >= 2100 {
		t.Errorf("DMADiffTime(half) = %d, want strictly between endpoints", mid)
	}
	// A software diff of a full page costs about 7K cycles of processor
	// instructions (Section 3.1) — the hardware must beat it.
	sw := c.DiffCyclesPerWord * 1024
	if sw < 7000 {
		t.Errorf("software diff cost %d below the paper's ~7K cycles", sw)
	}
	if c.DMADiffTime(1024, 1024) >= sw {
		t.Errorf("hardware diff (%d) not faster than software (%d)", c.DMADiffTime(1024, 1024), sw)
	}
}

// Property: DMA cost is monotone in the number of words set and always
// within the configured endpoints.
func TestDMADiffMonotoneProperty(t *testing.T) {
	c := Default()
	f := func(a, b uint16) bool {
		x, y := int(a)%1025, int(b)%1025
		if x > y {
			x, y = y, x
		}
		cx, cy := c.DMADiffTime(x, 1024), c.DMADiffTime(y, 1024)
		return cx <= cy && cx >= c.DMADiffBaseCycles && cy <= c.DMADiffFullCycles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAxisConversionsRoundTrip(t *testing.T) {
	c := Default()

	// Figure 13 axis: default 200 cycles = 2 microseconds.
	if got := c.MessagingOverheadMicros(); got != 2.0 {
		t.Errorf("MessagingOverheadMicros = %v, want 2", got)
	}
	c.SetMessagingOverheadMicros(0.5)
	if c.MessagingOverhead != 50 {
		t.Errorf("SetMessagingOverheadMicros(0.5) -> %d, want 50", c.MessagingOverhead)
	}

	// Figure 14 axis: 1 B/cycle = 100 MB/s raw.
	if got := c.NetworkBandwidthMBps(); got != 100 {
		t.Errorf("NetworkBandwidthMBps = %v, want 100", got)
	}
	c.SetNetworkBandwidthMBps(20)
	if math.Abs(c.NetPathBytesPerCycle-0.2) > 1e-9 {
		t.Errorf("SetNetworkBandwidthMBps(20) -> %v, want 0.2", c.NetPathBytesPerCycle)
	}

	// Figure 15 axis: 10-cycle setup = 100 ns.
	c = Default()
	if got := c.MemoryLatencyNanos(); got != 100 {
		t.Errorf("MemoryLatencyNanos = %v, want 100", got)
	}
	c.SetMemoryLatencyNanos(200)
	if c.MemSetupTime != 20 {
		t.Errorf("SetMemoryLatencyNanos(200) -> %d, want 20", c.MemSetupTime)
	}

	// Figure 16 axis: default line bandwidth ~94 MB/s.
	c = Default()
	bw := c.MemoryBandwidthMBps()
	if bw < 90 || bw > 110 {
		t.Errorf("MemoryBandwidthMBps = %v, want ~94-103", bw)
	}
	c.SetMemoryBandwidthMBps(60)
	got := c.MemoryBandwidthMBps()
	if math.Abs(got-60) > 10 {
		t.Errorf("after SetMemoryBandwidthMBps(60), bandwidth = %v", got)
	}
}

func TestNetTransferRoundsUp(t *testing.T) {
	c := Default()
	c.NetPathBytesPerCycle = 0.3
	got := c.NetTransferTime(1)
	if got != 4 { // 1/0.3 = 3.33 -> 4
		t.Errorf("NetTransferTime(1) at 0.3 B/cyc = %d, want 4", got)
	}
}
