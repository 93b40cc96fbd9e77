// Package controller models the paper's PCI-based programmable protocol
// controller: an integer RISC core working through a prioritized command
// queue, 4 MB of local DRAM, bus-snoop logic that maintains per-page
// write bit vectors from the computation processor's write-through
// traffic, and a DMA engine that generates and applies diffs directed by
// those bit vectors (Section 3.1).
package controller

import (
	"dsm96/internal/faults"
	"dsm96/internal/lrc"
	"dsm96/internal/memsys"
	"dsm96/internal/network"
	"dsm96/internal/params"
	"dsm96/internal/sim"
)

// Command-issue (doorbell) and dispatch costs live in params.Config
// (CommandIssueCost, CtrlDispatchCost) so interconnect profiles can
// rescale them: Table 1's doorbell is a couple of uncached PCI writes
// (10 cycles), a 2026 PCIe doorbell is ~100 ns of a much faster core,
// and a coherent-interconnect mailbox store is nearly free.

// SubmitTimeout is the driver-level watchdog on a command submission:
// if the controller has not accepted a doorbell write after this many
// cycles (200 µs at the paper's 10 ns cycle), the node declares the
// controller dead and fails over to software protocol handling. A hang
// shorter than this only delays the submitted commands.
const SubmitTimeout = 20000

// Controller is one node's protocol controller.
type Controller struct {
	ID   int
	Cfg  *params.Config
	Node *memsys.Node
	// Core is the RISC core + command queue: jobs are protocol actions;
	// prefetches are submitted at low priority so that demand requests
	// overtake them (Section 3.1, footnote 2).
	Core sim.Server

	// Sched, when non-nil, is this controller's failure schedule. A nil
	// schedule leaves every Submit structurally identical to a build
	// without failure injection (the fingerprint gates rely on it).
	//
	// Failures manifest at the PCI doorbell: a crashed or hung
	// controller stops ACCEPTING commands, while commands already in its
	// queue or in service complete normally — the RISC core's wedge is
	// modelled at the submission boundary, not as a mid-DMA abort, so
	// no protocol action is ever half-done. The bus-snoop logic is
	// passive custom hardware on the memory bus and keeps maintaining
	// write vectors even after the core crashes.
	Sched *faults.CtrlFault
	// OnFailover, when non-nil, fires exactly once, at the moment the
	// first submit timeout expires — the node-level degradation hook.
	OnFailover func()

	failed bool
	// vectors[pg] is page pg's write bit vector, nil until first armed
	// (page numbers are dense from 0; the snoop consults it per write).
	vectors []*lrc.WriteVector
}

// New builds a controller attached to a node's memory system.
func New(id int, cfg *params.Config, node *memsys.Node) *Controller {
	return &Controller{
		ID:   id,
		Cfg:  cfg,
		Node: node,
		Core: sim.Server{Name: "ctrl"},
	}
}

// Vector returns the write bit vector for page pg, creating it on demand.
func (c *Controller) Vector(pg int) *lrc.WriteVector {
	v := lrc.PageEntry(&c.vectors, pg)
	if *v == nil {
		*v = lrc.NewWriteVector(c.Cfg.PageWords())
	}
	return *v
}

// SnoopWrite records a write-through of the word at addr, as the snoop
// logic does when it sees the computation processor's write on the
// memory bus. Zero time: the custom hardware keeps up with the bus.
func (c *Controller) SnoopWrite(addr int64) {
	c.Vector(c.Cfg.PageOf(addr)).Mark(c.Cfg.PageOffset(addr) / params.WordBytes)
}

// Failed reports whether this controller has been declared dead (a
// submit timeout expired).
func (c *Controller) Failed() bool { return c.failed }

// fail marks the controller dead and fires the failover hook once.
func (c *Controller) fail() {
	if c.failed {
		return
	}
	c.failed = true
	if c.OnFailover != nil {
		c.OnFailover()
	}
}

// Submit places a job in the controller's command queue — unless its
// failure schedule says the doorbell is dead.
//
// fallback, when non-nil, is the software-path replacement for the
// job: it runs (in engine context) if the controller cannot take the
// command. For a crash, or a hang outlasting SubmitTimeout, the
// command is swallowed, the driver watchdog expires SubmitTimeout
// cycles later, the node fails over (OnFailover, once), and the
// fallback runs. Once failed, fallbacks run immediately. A hang that
// will clear within the timeout only delays the command: it enters the
// queue when the hang window ends.
func (c *Controller) Submit(e *sim.Engine, j *sim.Job, fallback func()) {
	if c.Sched == nil {
		c.Core.Submit(e, j)
		return
	}
	now := e.Now()
	switch {
	case c.failed:
		if fallback != nil {
			fallback()
		}
	case c.Sched.CrashedBy(now):
		e.After(SubmitTimeout, func() {
			c.fail()
			if fallback != nil {
				fallback()
			}
		})
	case c.Sched.HungAt(now):
		if resume := c.Sched.HangEnd(); resume-now <= SubmitTimeout && !c.Sched.CrashedBy(resume) {
			e.At(resume, func() { c.Core.Submit(e, j) })
			return
		}
		e.After(SubmitTimeout, func() {
			c.fail()
			if fallback != nil {
				fallback()
			}
		})
	default:
		c.Core.Submit(e, j)
	}
}

// SubmitSend queues the common "send a message" command: the controller
// core pays its dispatch cost plus the per-message overhead (the
// computation processor pays nothing — that is the point of the I
// variants), then hands the message to the reliable transport, which
// retries and deduplicates it if a fault model is installed on the
// network. fallback is the software send path used when the controller
// is dead (see Submit); the message itself must still go out — only
// who pays for it changes.
func (c *Controller) SubmitSend(e *sim.Engine, nw *network.Network, dst, bytes int, deliver func(), fallback func()) {
	c.Submit(e, &sim.Job{
		Name:    "send",
		Service: c.Cfg.CtrlDispatchCost + c.Cfg.MessagingOverhead,
		Done: func() {
			nw.SendReliable(c.ID, dst, bytes, 0, deliver)
		},
	}, fallback)
}

// HWDiffCreateCost is the DMA engine's time to scan page pg's bit vector
// and gather the written words (200 cycles for a clean 4 KB page, ~2100
// when every word is set, interpolated in between).
func (c *Controller) HWDiffCreateCost(pg int) sim.Time {
	return c.Cfg.DMADiffTime(c.Vector(pg).Count(), c.Cfg.PageWords())
}

// HWDiffApplyCost is the DMA engine's time to scatter a diff of n words
// into a destination page, directed by the diff's bit vector.
func (c *Controller) HWDiffApplyCost(words int) sim.Time {
	return c.Cfg.DMADiffTime(words, c.Cfg.PageWords())
}

// Cost helpers shared with the software (processor-executed) paths.

// TwinCost is the instruction cost of twinning a page in software
// (5 cycles/word; memory-bus occupancy is charged separately).
func TwinCost(cfg *params.Config) sim.Time {
	return cfg.TwinCyclesPerWord * sim.Time(cfg.PageWords())
}

// SoftDiffCreateCost is the instruction cost of creating a diff in
// software: the whole page is compared against its twin (7 cycles/word).
func SoftDiffCreateCost(cfg *params.Config) sim.Time {
	return cfg.DiffCyclesPerWord * sim.Time(cfg.PageWords())
}

// SoftDiffApplyCost is the instruction cost of applying an n-word diff in
// software (7 cycles/word touched).
func SoftDiffApplyCost(cfg *params.Config, words int) sim.Time {
	return cfg.DiffCyclesPerWord * sim.Time(words)
}
