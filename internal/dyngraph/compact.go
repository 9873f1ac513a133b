package dyngraph

import "knightking/internal/graph"

// testHookMidCompact, when set by tests, runs after the new base CSR is
// materialized but before the epoch is published — the window a crash
// test injects a panic into to prove published epochs are never torn.
var testHookMidCompact func()

// Compact folds the overlay into a fresh plain CSR and publishes it as
// a new epoch. The epoch content is exactly what loading the compacted
// edge list from scratch would produce — same graph.Fingerprint. A
// no-op returning the current epoch when there is nothing to fold.
//
// Crash safety: the current epoch pointer is the last thing written, so
// a failure anywhere in compaction leaves the previous epoch published
// and fully usable, and a retry starts from unchanged state.
func (d *DynGraph) Compact() (*Epoch, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.compactLocked()
}

func (d *DynGraph) compactLocked() (*Epoch, error) {
	prev := d.cur.Load()
	if !prev.view.Overlaid() {
		return prev, nil
	}
	newBase := prev.view.Compacted()

	if testHookMidCompact != nil {
		testHookMidCompact()
	}

	ep := &Epoch{
		seq:     prev.seq + 1,
		view:    newBase,
		fpKnown: true,
		fp:      graph.Fingerprint(newBase),
		logFP:   mixU64(prev.logFP, markCompact),
		rows:    prev.rows,
	}

	d.pending = 0
	d.compactions++
	d.cur.Store(ep)
	return ep, nil
}
