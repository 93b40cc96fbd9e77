package tmk

import (
	"fmt"
	"sort"

	"dsm96/internal/trace"

	"dsm96/internal/lrc"
)

// closeInterval ends the node's current interval if it performed any
// writes (pages with live twins / write vectors carry write notices in
// every interval until their diff is created, mirroring TreadMarks'
// twin-driven notice generation). Returns the new interval or nil.
func (n *pnode) closeInterval() *lrc.Interval {
	if len(n.dirty) == 0 {
		return nil
	}
	seq := n.vts[n.id] + 1
	iv := &lrc.Interval{
		Owner: n.id,
		Seq:   seq,
		VTS:   n.vts.Clone(),
		Pages: n.sortedDirty(),
	}
	iv.VTS[n.id] = seq
	n.vts[n.id] = seq
	n.ivals[n.id] = append(n.ivals[n.id], iv)
	for _, pg := range iv.Pages {
		if pe := n.page(pg); pe.firstIval == 0 {
			pe.firstIval = seq
		}
		n.emit(pg, trace.KindIntervalClose, "seq=%d pages=%d", seq, len(iv.Pages))
	}
	return iv
}

// storeInterval records an interval received from elsewhere. Intervals of
// each owner always arrive in sequence order (senders ship contiguous
// ranges); a gap indicates a protocol bug.
func (n *pnode) storeInterval(iv *lrc.Interval) {
	have := int32(len(n.ivals[iv.Owner]))
	switch {
	case iv.Seq <= have:
		return // duplicate
	case iv.Seq == have+1:
		n.ivals[iv.Owner] = append(n.ivals[iv.Owner], iv)
	default:
		panic(fmt.Sprintf("tmk: node %d got interval (%d,%d) with only %d stored",
			n.id, iv.Owner, iv.Seq, have))
	}
}

// integrate stores a batch of interval records and applies their write
// notices: pages they name are invalidated (keeping any live twin — the
// local modifications survive and incoming diffs are merged into both the
// page and the twin). The node's vector timestamp absorbs everything the
// batch makes visible. Pure state change; timing is charged by callers.
func (n *pnode) integrate(ivs []*lrc.Interval) {
	for _, iv := range ivs {
		n.storeInterval(iv)
		if iv.Owner == n.id {
			continue
		}
		// Skip only intervals whose notices this node has actually
		// processed. The vector timestamp is NOT a safe test here: an
		// earlier interval in the same batch can carry a VTS covering a
		// later one, and using it would silently drop the later
		// interval's invalidations.
		if iv.Seq <= n.noticed[iv.Owner] {
			continue
		}
		for _, pg := range iv.Pages {
			pe := n.page(pg)
			if pe.applied[iv.Owner] >= iv.Seq {
				continue // data already incorporated
			}
			n.emit(pg, trace.KindNotice, "(%d,%d) applied=%d", iv.Owner, iv.Seq, pe.applied[iv.Owner])
			pe.pending = append(pe.pending, lrc.WriteNotice{Page: pg, Owner: iv.Owner, Seq: iv.Seq})
			if pe.state != stInvalid {
				pe.state = stInvalid
				n.pr.profile(pg).Invalidations++
				if pe.prefetchedUnused {
					pe.prefetchedUnused = false
					n.st.UselessPrefetch++
					pe.uselessStreak++
				}
				if n.pr.mode.Prefetch() && !pe.queuedPrefetch {
					pe.queuedPrefetch = true
					n.prefetchQueue = append(n.prefetchQueue, pg)
				}
			}
		}
		n.noticed[iv.Owner] = iv.Seq
		n.vts.Max(iv.VTS)
	}
	n.checkVTSRecords("integrate")
}

// checkVTSRecords asserts the invariant that every interval the vector
// timestamp claims has a stored record (debug aid; cheap).
func (n *pnode) checkVTSRecords(where string) {
	for o := range n.vts {
		if o != n.id && int(n.vts[o]) > len(n.ivals[o]) {
			culprits := ""
			for oo := range n.vts {
				for _, iv := range n.ivals[oo] {
					if iv.VTS[o] >= n.vts[o] {
						culprits += fmt.Sprintf(" (%d,%d)vts=%v", iv.Owner, iv.Seq, iv.VTS)
					}
				}
			}
			panic(fmt.Sprintf("tmk: node %d at %s: vts[%d]=%d but only %d records; culprits:%s",
				n.id, where, o, n.vts[o], len(n.ivals[o]), culprits))
		}
	}
}

// missingIntervals collects every interval the target (with vector
// timestamp `have`) lacks, excluding the target's own intervals (it has
// those by construction). Intervals are returned grouped by owner in
// ascending sequence order — contiguous ranges, as storeInterval needs.
func (n *pnode) missingIntervals(have lrc.VTS, exclude int) []*lrc.Interval {
	var out []*lrc.Interval
	for o := 0; o < len(n.vts); o++ {
		if o == exclude {
			continue
		}
		for s := have[o] + 1; s <= n.vts[o]; s++ {
			out = append(out, n.ivals[o][s-1])
		}
	}
	return out
}

// intervalsWireBytes sizes a batch of interval records on the network:
// a header plus per interval its vector timestamp and one write notice
// per page.
func intervalsWireBytes(ivs []*lrc.Interval, nprocs int) int {
	bytes := 16
	for _, iv := range ivs {
		bytes += 16 + 4*nprocs + lrc.WriteNoticeWireBytes*len(iv.Pages)
	}
	return bytes
}

// noticeCount totals the write notices in a batch.
func noticeCount(ivs []*lrc.Interval) int {
	total := 0
	for _, iv := range ivs {
		total += len(iv.Pages)
	}
	return total
}

// listCost is the protocol-software cost of walking a batch of intervals
// and their notices (Table 1's 6 cycles per list element).
func (n *pnode) listCost(ivs []*lrc.Interval) int64 {
	return n.pr.cfg.ListProcessing * int64(len(ivs)+noticeCount(ivs))
}

// pendingByOwner groups a page's pending notices: for each owner, the
// lowest already-applied sequence (the reply must cover everything after
// it). Owners are returned in ascending order for determinism. The
// result lives in scratch (grown as needed); owner sets are tiny, so the
// dedup is a linear scan rather than a map.
func pendingByOwner(pe *page, scratch []int) []int {
	owners := scratch[:0]
outer:
	for _, wn := range pe.pending {
		for _, o := range owners {
			if o == wn.Owner {
				continue outer
			}
		}
		owners = append(owners, wn.Owner)
	}
	sort.Ints(owners)
	return owners
}

// prunePending drops notices whose data has been applied.
func prunePending(pe *page) {
	kept := pe.pending[:0]
	for _, wn := range pe.pending {
		if pe.applied[wn.Owner] < wn.Seq {
			kept = append(kept, wn)
		}
	}
	pe.pending = kept
}
