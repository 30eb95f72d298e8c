package ordering

import (
	"time"

	"sharper/internal/consensus"
	"sharper/internal/types"
)

// persistAccept records the instance's current binding if it changed since
// the last record for this slot. False means the record did not reach
// stable storage and the caller must withhold the vote (the durable marker
// stays clear, so the next delivery retries).
func (e *Engine) persistAccept(seq uint64, inst *instance) bool {
	if e.persist == nil || !inst.bound() {
		return true
	}
	if inst.durable && inst.durableView == inst.view && inst.durableDigest == inst.digest {
		return true
	}
	if err := e.persist.PersistAccept(seq, inst.view, inst.parent, inst.digest, inst.txs); err != nil {
		return false
	}
	inst.durable = true
	inst.durableView = inst.view
	inst.durableDigest = inst.digest
	return true
}

// persistViewState records the engine's view position; false withholds the
// dependent message.
func (e *Engine) persistViewState() bool {
	if e.persist == nil {
		return true
	}
	return e.persist.PersistView(e.view, e.promised) == nil
}

// Restore warms a freshly built engine from recovered durable state: the
// view position and every acceptance the node had taken on. Call it once,
// after SyncChainHead has advanced the engine to the recovered chain head
// and before the node starts processing messages. The node's own vote is
// recorded again in each recovered instance (re-signed where the policy
// signs), so it stays bound to the digest it voted for: an equivocating
// proposal for the same slot is rejected against the restored binding.
func (e *Engine) Restore(view, promised uint64, insts []consensus.DurableInstance, now time.Time) {
	if view > e.view {
		e.view = view
	}
	if promised > e.promised {
		e.promised = promised
	}
	for _, d := range insts {
		if d.Seq <= e.committedSeq || len(d.Txs) == 0 {
			continue
		}
		inst := &instance{
			digest:   d.Digest,
			parent:   d.Parent,
			txs:      d.Txs,
			block:    &types.Block{Txs: d.Txs, Parents: []types.Hash{d.Parent}},
			view:     d.View,
			deadline: now.Add(e.timeout),
			durable:  true, durableView: d.View, durableDigest: d.Digest,
		}
		e.instances[d.Seq] = inst
		// The vote is recorded here, not sent: whether it left before the
		// crash is unknown, so a re-delivered proposal sends it (again).
		e.pol.vote(e, inst, d.Seq, e.self)
		inst.voted = false
	}
	// Restored acceptances occupy their pipeline slots, so a restarted
	// primary's next Propose cannot allocate — and overwrite — a slot it had
	// already voted for a value in.
	e.relink(e.proposedSeq, e.proposedHead)
	e.ring.Recordf("restore", e.proposedSeq, types.ZeroHash,
		"v=%d promised=%d committed=%d accepted=%d", e.view, e.promised, e.committedSeq, len(insts))
}

// DurableState reports the engine state a checkpoint must carry forward
// into a fresh log segment: the view position and every
// accepted-but-uncommitted value (including recovered values not yet
// re-proposed, which are acceptor obligations all the same).
func (e *Engine) DurableState() (view, promised uint64, insts []consensus.DurableInstance) {
	for seq, inst := range e.instances {
		if seq > e.committedSeq && inst.bound() {
			insts = append(insts, consensus.DurableInstance{
				Seq: seq, View: inst.view, Parent: inst.parent, Digest: inst.digest, Txs: inst.txs,
			})
		}
	}
	for _, c := range e.pendingRepropose {
		if c.Seq > e.committedSeq {
			insts = append(insts, consensus.DurableInstance{
				Seq: c.Seq, View: c.View, Digest: c.Digest, Txs: c.Txs,
			})
		}
	}
	return e.view, e.promised, insts
}
