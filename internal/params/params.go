// Package params holds the simulated machine's architectural parameters.
// The defaults reproduce Table 1 of the paper ("Default Values for System
// Parameters. 1 cycle = 10 ns"); the sensitivity studies of Section 5.3
// (Figures 13-16) vary them.
//
// Machines are data, not code: a Config is carried by a Profile — a
// named, versioned parameter bundle (schema dsm96/params-profile/v1,
// see profile.go and profiles/README.md) — and the three builtin
// profiles are the interconnect backends the cross-backend ladder
// sweeps: pci1996 (Table 1 exactly), rdma (a 2026 kernel-bypass NIC:
// no interrupt on the data path), and cxl (a coherent interconnect:
// cheap fine-grained remote access, no doorbell).
package params

import (
	"fmt"
	"math/bits"
)

// WordBytes is the machine word size used for diffs and bit vectors.
const WordBytes = 4

// Config collects every architectural parameter of the simulated network
// of workstations. All times are in processor cycles unless stated
// otherwise; CycleNanos (10 ns in Table 1) anchors cycles to wall time
// for the unit-conversion helpers and is never consulted by the
// simulation itself. The JSON tags are the dsm96/params-profile/v1 field
// names (documented field-by-field in profiles/README.md).
type Config struct {
	// Processors is the number of nodes (computation processors).
	Processors int `json:"processors"`

	// CycleNanos is the wall-clock length of one processor cycle in
	// nanoseconds (Table 1: 10 ns, a 100 MHz processor; the 2026
	// profiles use 0.5 ns, a 2 GHz core). Reporting-only: it scales the
	// MB/s and microsecond conversion helpers but never enters the
	// cycle-domain simulation, so two profiles with equal cycle
	// parameters produce bit-identical schedules regardless of it.
	CycleNanos float64 `json:"cycle_ns"`

	// TLBSize is the number of TLB entries per processor.
	TLBSize int `json:"tlb_entries"`
	// TLBFillTime is the TLB fill service time in cycles.
	TLBFillTime int64 `json:"tlb_fill_cycles"`
	// InterruptTime is the cost of entering/leaving any interrupt. The
	// rdma and cxl backends set it to 0: user-level and coherent
	// interconnects keep interrupts off the data path entirely.
	InterruptTime int64 `json:"interrupt_cycles"`

	// PageSize in bytes.
	PageSize int `json:"page_bytes"`
	// CacheSize is the total first-level data cache per processor, bytes.
	CacheSize int `json:"cache_bytes"`
	// CacheLineSize in bytes.
	CacheLineSize int `json:"cache_line_bytes"`
	// WriteBufferSize is the number of write-buffer entries.
	WriteBufferSize int `json:"write_buffer_entries"`
	// WriteCacheSize is the number of AURC write-cache entries.
	WriteCacheSize int `json:"write_cache_entries"`

	// MemSetupTime is DRAM setup in cycles; MemCyclesPerWord is the
	// per-word streaming cost after setup.
	MemSetupTime     int64 `json:"mem_setup_cycles"`
	MemCyclesPerWord int64 `json:"mem_cycles_per_word"`

	// WriteThroughCyclesPerWord is the memory-bus occupancy of draining
	// one write-through word from the write buffer. 0 — the Table 1
	// default — derives it from MemSetupTime + MemCyclesPerWord (13
	// cycles), which keeps the memory-latency sensitivity sweep of
	// Figure 15 coupled exactly as the paper's machine was. Modern
	// profiles set it explicitly: posted, write-combining stores do not
	// pay full DRAM setup per word.
	WriteThroughCyclesPerWord int64 `json:"write_through_cycles_per_word"`

	// PCISetupTime and PCICyclesPerWord model the I/O bus between the
	// controller/NIC and memory (PCI in 1996; PCIe/CXL in the modern
	// profiles, where per-word cost may be 0 — setup-dominated DMA).
	PCISetupTime     int64 `json:"pci_setup_cycles"`
	PCICyclesPerWord int64 `json:"pci_cycles_per_word"`

	// NetPathBytesPerCycle is the link width in bytes transferred per
	// cycle in each direction (Table 1: 8 bits bidirectional = 1 B/cycle,
	// i.e. 100 MB/s raw; the paper quotes ~50 MB/s effective after
	// per-message overheads).
	NetPathBytesPerCycle float64 `json:"net_bytes_per_cycle"`
	// MessagingOverhead is the per-message network-interface setup cost
	// paid by the sender.
	MessagingOverhead int64 `json:"messaging_overhead_cycles"`
	// AURCUpdateOverhead is the per-update-message overhead for AURC
	// automatic updates. The paper's default optimistically charges a
	// single cycle (Section 5.3); setting it equal to MessagingOverhead
	// reproduces the pessimistic curve of Figure 13.
	AURCUpdateOverhead int64 `json:"aurc_update_overhead_cycles"`
	// SwitchLatency and WireLatency are per-hop mesh costs.
	SwitchLatency int64 `json:"switch_cycles"`
	WireLatency   int64 `json:"wire_cycles"`

	// ListProcessing is the software cost per element of traversing
	// protocol lists (write notices, intervals).
	ListProcessing int64 `json:"list_processing_cycles"`
	// TwinCyclesPerWord is page twinning cost per word (plus memory).
	TwinCyclesPerWord int64 `json:"twin_cycles_per_word"`
	// DiffCyclesPerWord is software diff creation/application cost per
	// word (plus memory accesses).
	DiffCyclesPerWord int64 `json:"diff_cycles_per_word"`

	// DMADiffBaseCycles is the DMA engine's cost to scan the bit vector
	// of an all-clean page; DMADiffFullCycles is the cost when every word
	// of a 4 KB page is set (paper: ~200 and ~2100 controller cycles).
	// Costs for partially written pages are interpolated linearly.
	DMADiffBaseCycles int64 `json:"dma_diff_base_cycles"`
	DMADiffFullCycles int64 `json:"dma_diff_full_cycles"`

	// CommandIssueCost is the cycles the computation processor spends
	// placing a command in the protocol controller's queue (1996: a
	// couple of uncached writes across the PCI bridge — the doorbell).
	// The cxl backend makes this nearly free (a store to a coherent
	// mailbox); on rdma it is *more* CPU cycles than in 1996, because
	// cores got faster while a PCIe doorbell write stayed ~100 ns.
	CommandIssueCost int64 `json:"command_issue_cycles"`
	// CtrlDispatchCost is the controller core's fixed cost to pick up
	// and decode a command from its queue.
	CtrlDispatchCost int64 `json:"ctrl_dispatch_cycles"`
}

// Default returns Table 1 of the paper (the pci1996 backend).
func Default() Config {
	return Config{
		Processors:           16,
		CycleNanos:           10,
		TLBSize:              128,
		TLBFillTime:          100,
		InterruptTime:        400,
		PageSize:             4096,
		CacheSize:            128 * 1024,
		CacheLineSize:        32,
		WriteBufferSize:      4,
		WriteCacheSize:       4,
		MemSetupTime:         10,
		MemCyclesPerWord:     3,
		PCISetupTime:         10,
		PCICyclesPerWord:     3,
		NetPathBytesPerCycle: 1.0,
		MessagingOverhead:    200,
		AURCUpdateOverhead:   1,
		SwitchLatency:        4,
		WireLatency:          2,
		ListProcessing:       6,
		TwinCyclesPerWord:    5,
		DiffCyclesPerWord:    7,
		DMADiffBaseCycles:    200,
		DMADiffFullCycles:    2100,
		CommandIssueCost:     10,
		CtrlDispatchCost:     20,
	}
}

// Mesh returns the Table 1 machine scaled to an n-node mesh: n
// processors laid out on the closest-to-square rectangle (network.New
// derives the dimensions). Every other parameter keeps its default.
// The large-mesh tests build their machines with it.
func Mesh(n int) Config {
	c := Default()
	c.Processors = n
	return c
}

// Validate reports the first configuration inconsistency found.
func (c *Config) Validate() error {
	switch {
	case c.Processors < 1:
		return fmt.Errorf("params: Processors = %d, need >= 1", c.Processors)
	case !powerOfTwo(c.PageSize) || c.PageSize < WordBytes:
		return fmt.Errorf("params: PageSize = %d must be a power of two >= %d", c.PageSize, WordBytes)
	case !powerOfTwo(c.CacheLineSize) || c.CacheLineSize < WordBytes:
		return fmt.Errorf("params: CacheLineSize = %d must be a power of two >= %d", c.CacheLineSize, WordBytes)
	case c.CacheSize < c.CacheLineSize || c.CacheSize%c.CacheLineSize != 0 || !powerOfTwo(c.CacheSize/c.CacheLineSize):
		return fmt.Errorf("params: CacheSize = %d must be a power-of-two number of %d-byte lines", c.CacheSize, c.CacheLineSize)
	case c.TLBSize <= 0:
		return fmt.Errorf("params: TLBSize = %d, need > 0", c.TLBSize)
	case c.WriteBufferSize <= 0:
		return fmt.Errorf("params: WriteBufferSize = %d, need > 0", c.WriteBufferSize)
	case c.WriteCacheSize <= 0:
		return fmt.Errorf("params: WriteCacheSize = %d, need > 0", c.WriteCacheSize)
	case c.NetPathBytesPerCycle <= 0:
		return fmt.Errorf("params: NetPathBytesPerCycle = %v, need > 0", c.NetPathBytesPerCycle)
	case c.MemCyclesPerWord <= 0 || c.MemSetupTime < 0:
		return fmt.Errorf("params: memory timing (%d setup, %d/word) invalid", c.MemSetupTime, c.MemCyclesPerWord)
	case c.DMADiffFullCycles < c.DMADiffBaseCycles:
		return fmt.Errorf("params: DMA full cost %d below base cost %d", c.DMADiffFullCycles, c.DMADiffBaseCycles)
	case c.DMADiffBaseCycles < 0:
		return fmt.Errorf("params: DMADiffBaseCycles = %d, need >= 0", c.DMADiffBaseCycles)
	case c.CycleNanos <= 0:
		return fmt.Errorf("params: CycleNanos = %v, need > 0", c.CycleNanos)
	case c.WriteThroughCyclesPerWord < 0:
		return fmt.Errorf("params: WriteThroughCyclesPerWord = %d, need >= 0 (0 derives it from memory timing)", c.WriteThroughCyclesPerWord)
	case c.PCISetupTime < 0 || c.PCICyclesPerWord < 0:
		return fmt.Errorf("params: PCI timing (%d setup, %d/word) invalid", c.PCISetupTime, c.PCICyclesPerWord)
	case c.InterruptTime < 0:
		return fmt.Errorf("params: InterruptTime = %d, need >= 0", c.InterruptTime)
	case c.TLBFillTime < 0:
		return fmt.Errorf("params: TLBFillTime = %d, need >= 0", c.TLBFillTime)
	case c.MessagingOverhead < 0 || c.AURCUpdateOverhead < 0:
		return fmt.Errorf("params: messaging overheads (%d, AURC %d) must be >= 0", c.MessagingOverhead, c.AURCUpdateOverhead)
	case c.SwitchLatency < 0 || c.WireLatency < 0 || c.SwitchLatency+c.WireLatency < 1:
		return fmt.Errorf("params: per-hop latency (switch %d + wire %d) must be >= 1 cycle", c.SwitchLatency, c.WireLatency)
	case c.ListProcessing < 0 || c.TwinCyclesPerWord < 0 || c.DiffCyclesPerWord < 0:
		return fmt.Errorf("params: software costs (list %d, twin %d, diff %d) must be >= 0", c.ListProcessing, c.TwinCyclesPerWord, c.DiffCyclesPerWord)
	case c.CommandIssueCost < 0 || c.CtrlDispatchCost < 0:
		return fmt.Errorf("params: controller costs (CommandIssueCost %d, CtrlDispatchCost %d) must be >= 0", c.CommandIssueCost, c.CtrlDispatchCost)
	}
	return nil
}

// powerOfTwo reports whether n is a positive power of two. Page, line
// and cache sizes must be: every shared reference decodes its address
// with shifts and masks, never a division.
func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// PageOf returns the number of the page holding addr. It is the page
// decode of every shared reference (memsys, tmk, aurc, controller), so
// it is a shift: Validate admits only power-of-two page sizes.
func (c *Config) PageOf(addr int64) int {
	return int(addr >> uint(bits.TrailingZeros(uint(c.PageSize))))
}

// PageOffset returns addr's byte offset within its page.
func (c *Config) PageOffset(addr int64) int { return int(addr) & (c.PageSize - 1) }

// PageWords returns words per page.
func (c *Config) PageWords() int { return c.PageSize / WordBytes }

// LineWords returns words per cache line.
func (c *Config) LineWords() int { return c.CacheLineSize / WordBytes }

// MemLineTime is the DRAM occupancy of one cache-line transfer.
func (c *Config) MemLineTime() int64 {
	return c.MemSetupTime + c.MemCyclesPerWord*int64(c.LineWords())
}

// MemWordTime is the DRAM occupancy of a single-word access.
func (c *Config) MemWordTime() int64 { return c.MemSetupTime + c.MemCyclesPerWord }

// WriteThroughWordTime is the memory-bus occupancy of draining one
// write-through word from the write buffer: the explicit
// WriteThroughCyclesPerWord when a profile sets it, otherwise derived
// from the memory timing exactly as the paper's machine was (setup +
// one word, 13 cycles at Table 1 values).
func (c *Config) WriteThroughWordTime() int64 {
	if c.WriteThroughCyclesPerWord > 0 {
		return c.WriteThroughCyclesPerWord
	}
	return c.MemWordTime()
}

// MemBlockTime is the DRAM occupancy of an n-byte streaming transfer.
func (c *Config) MemBlockTime(bytes int) int64 {
	words := int64((bytes + WordBytes - 1) / WordBytes)
	if words == 0 {
		return 0
	}
	return c.MemSetupTime + c.MemCyclesPerWord*words
}

// PCIBlockTime is the PCI occupancy of an n-byte burst.
func (c *Config) PCIBlockTime(bytes int) int64 {
	words := int64((bytes + WordBytes - 1) / WordBytes)
	if words == 0 {
		return 0
	}
	return c.PCISetupTime + c.PCICyclesPerWord*words
}

// NetTransferTime is the cycles a message of n bytes occupies one link.
func (c *Config) NetTransferTime(bytes int) int64 {
	t := float64(bytes) / c.NetPathBytesPerCycle
	w := int64(t)
	if float64(w) < t {
		w++
	}
	return w
}

// DMADiffTime interpolates the DMA engine's scan/transfer cost for a page
// in which wordsSet of pageWords words are marked in the bit vector.
func (c *Config) DMADiffTime(wordsSet, pageWords int) int64 {
	if pageWords <= 0 {
		return c.DMADiffBaseCycles
	}
	if wordsSet > pageWords {
		wordsSet = pageWords
	}
	span := c.DMADiffFullCycles - c.DMADiffBaseCycles
	return c.DMADiffBaseCycles + span*int64(wordsSet)/int64(pageWords)
}

// mbPerSecPerBytePerCycle converts bytes/cycle to MB/s at this profile's
// timebase (Table 1's 10 ns cycle gives the paper's factor of 100).
func (c *Config) mbPerSecPerBytePerCycle() float64 {
	return 1000 / c.CycleNanos
}

// cyclesPerMicro is how many cycles one microsecond spans (100 at the
// paper's 10 ns cycle).
func (c *Config) cyclesPerMicro() float64 {
	return 1000 / c.CycleNanos
}

// Millis converts a cycle count to wall-clock milliseconds at this
// profile's timebase.
func (c *Config) Millis(cycles int64) float64 {
	return float64(cycles) * c.CycleNanos / 1e6
}

// ClockMHz is the processor clock implied by the timebase (Table 1:
// 100 MHz).
func (c *Config) ClockMHz() float64 { return 1000 / c.CycleNanos }

// MemoryBandwidthMBps converts the DRAM streaming parameters to MB/s for
// cache-block transfers, for reporting against Figure 16's axis
// (default: 32 bytes / (10+3*8 cycles) / 10ns ≈ 94 MB/s; the paper quotes
// 103 MB/s for its slightly different accounting).
func (c *Config) MemoryBandwidthMBps() float64 {
	t := c.MemLineTime()
	if t == 0 {
		return 0
	}
	bytesPerCycle := float64(c.CacheLineSize) / float64(t)
	return bytesPerCycle * c.mbPerSecPerBytePerCycle()
}

// NetworkBandwidthMBps converts link width to MB/s (Figure 14's axis).
func (c *Config) NetworkBandwidthMBps() float64 {
	return c.NetPathBytesPerCycle * c.mbPerSecPerBytePerCycle()
}

// SetNetworkBandwidthMBps adjusts the link width for a target bandwidth.
func (c *Config) SetNetworkBandwidthMBps(mbps float64) {
	c.NetPathBytesPerCycle = mbps / c.mbPerSecPerBytePerCycle()
}

// MessagingOverheadMicros reports the messaging overhead in microseconds
// (Figure 13's axis; 200 cycles = 2 us at Table 1's timebase).
func (c *Config) MessagingOverheadMicros() float64 {
	return float64(c.MessagingOverhead) / c.cyclesPerMicro()
}

// SetMessagingOverheadMicros sets the per-message overhead from
// microseconds.
func (c *Config) SetMessagingOverheadMicros(us float64) {
	c.MessagingOverhead = int64(us * c.cyclesPerMicro())
}

// MemoryLatencyNanos reports DRAM setup latency in ns (Figure 15's axis;
// 10 cycles = 100 ns at Table 1's timebase).
func (c *Config) MemoryLatencyNanos() float64 {
	return float64(c.MemSetupTime) * c.CycleNanos
}

// SetMemoryLatencyNanos sets DRAM setup latency from nanoseconds.
func (c *Config) SetMemoryLatencyNanos(ns float64) {
	c.MemSetupTime = int64(ns / c.CycleNanos)
}

// SetMemoryBandwidthMBps adjusts per-word streaming cost for a target
// cache-block bandwidth, holding setup latency fixed.
func (c *Config) SetMemoryBandwidthMBps(mbps float64) {
	// mbps = lineBytes / ((setup + perWord*lineWords) * cycleNs)
	// => perWord = (lineBytes*(1000/cycleNs)/mbps - setup) / lineWords
	lw := float64(c.LineWords())
	per := (float64(c.CacheLineSize)*c.mbPerSecPerBytePerCycle()/mbps - float64(c.MemSetupTime)) / lw
	if per < 1 {
		per = 1
	}
	c.MemCyclesPerWord = int64(per + 0.5)
}
