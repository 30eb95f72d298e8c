package ordering

import (
	"sort"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/types"
)

// SuspectPrimary votes to depose the current primary. The runtime calls it
// when a forwarded client request goes unexecuted past its timeout — the
// PBFT rule that lets a cluster recover from a primary that fails while
// holding no in-flight proposals.
func (e *Engine) SuspectPrimary(now time.Time) []consensus.Outbound {
	if e.IsPrimary() || e.viewChanging {
		return nil
	}
	return e.startViewChange(e.view+1, now)
}

func (e *Engine) startViewChange(newView uint64, now time.Time) []consensus.Outbound {
	e.viewChanging = true
	// Give the candidate primary two full windows to assemble the new view
	// before escalating past it.
	e.vcDeadline = now.Add(2 * e.timeout)
	if newView > e.promised {
		e.promised = newView
	}
	// The promise must hit stable storage before the vote leaves: a
	// restarted node that forgot it could vote for proposals from the
	// deposed view, invisible to the new view's value recovery.
	// Unpersistable ⇒ no vote (the escalation timer retries).
	if !e.persistViewState() {
		return nil
	}
	vc := &types.ViewChange{
		NewView:  newView,
		Cluster:  e.cluster,
		LastSeq:  e.committedSeq,
		LastHash: e.committedHead,
	}
	// Report, with its body, every uncommitted instance the policy lets this
	// node vouch for, so the new primary can re-propose the values. Any
	// value that reached a commit quorum in the deposed view is held by at
	// least one member of every view-change quorum, so it is always
	// reported. Committed-but-undelivered instances (a commit observed above
	// a gap) are reported too: they are bound slots the new primary must
	// respect.
	reported := make(map[uint64]bool)
	for seq, inst := range e.instances {
		if seq <= e.committedSeq || !inst.bound() {
			continue
		}
		p := types.PreparedInstance{Seq: seq, View: inst.view, Digest: inst.digest, Txs: inst.txs}
		if !e.pol.certify(e, inst, &p) {
			continue
		}
		vc.Prepared = append(vc.Prepared, p)
		reported[seq] = true
		if seq > vc.PreparedSeq {
			vc.PreparedSeq = seq
			vc.PreparedHash = inst.digest
		}
	}
	// Values this node recovered as primary but had not re-proposed yet
	// live only in pendingRepropose; they must survive into the next view's
	// recovery as well, or a twice-deposed value could lose its slot.
	for _, c := range e.pendingRepropose {
		if c.Seq > e.committedSeq && !reported[c.Seq] {
			vc.Prepared = append(vc.Prepared, c)
		}
	}
	e.recordViewChange(e.self, vc)
	e.ring.Recordf("vc-vote", vc.LastSeq, types.ZeroHash, "nv=%d prepared=%d", newView, len(vc.Prepared))
	return []consensus.Outbound{e.multicast(types.MsgViewChange, vc.Encode(nil))}
}

func (e *Engine) recordViewChange(from types.NodeID, vc *types.ViewChange) {
	m, ok := e.vcVotes[vc.NewView]
	if !ok {
		m = make(map[types.NodeID]*types.ViewChange)
		e.vcVotes[vc.NewView] = m
	}
	m[from] = vc
}

func (e *Engine) onViewChange(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	vc, err := types.DecodeViewChange(env.Payload)
	if err != nil || vc.NewView <= e.view || vc.Cluster != e.cluster {
		return nil, nil
	}
	e.recordViewChange(env.From, vc)
	votes := e.vcVotes[vc.NewView]

	var out []consensus.Outbound
	// Join once the policy finds the suspicion credible (we are behind, or
	// our timer would fire too).
	if !e.viewChanging && len(votes) >= e.joinAt {
		out = append(out, e.startViewChange(vc.NewView, now)...)
	}
	// The would-be primary of newView collects a quorum of votes (incl. its
	// own) and announces the new view.
	if e.topo.Primary(e.cluster, vc.NewView) != e.self || len(votes) < e.quorum {
		return out, nil
	}
	nv := &types.ViewChange{NewView: vc.NewView, Cluster: e.cluster,
		LastSeq: e.committedSeq, LastHash: e.committedHead}
	out = append(out, e.multicast(types.MsgNewView, nv.Encode(nil)))
	e.adoptRecovery(votes)
	e.installView(vc.NewView, now)
	out = append(out, e.drainRepropose(now)...)
	return out, nil
}

// adoptRecovery digests the view-change quorum's reports into the new
// primary's obligations: the commit level it must reach before proposing
// (reproposeBarrier, satisfied by chain sync) and the values it must
// re-bind first (pendingRepropose, ascending, highest view wins per slot).
// The policy decides which reports to believe.
func (e *Engine) adoptRecovery(votes map[types.NodeID]*types.ViewChange) {
	lastSeqs := make([]uint64, 0, len(votes))
	cands := make(map[uint64]types.PreparedInstance)
	for _, vc := range votes {
		lastSeqs = append(lastSeqs, vc.LastSeq)
		for _, p := range vc.Prepared {
			if p.Seq <= e.committedSeq || len(p.Txs) == 0 || types.BatchDigest(p.Txs) != p.Digest || !e.pol.recovers(e, &p) {
				continue
			}
			if cur, ok := cands[p.Seq]; !ok || p.View > cur.View {
				cands[p.Seq] = p
			}
		}
	}
	sort.Slice(lastSeqs, func(i, j int) bool { return lastSeqs[i] > lastSeqs[j] })
	e.reproposeBarrier = e.committedSeq
	if k := e.pol.barrierRank(e.topo.F(e.cluster)); len(lastSeqs) > k && lastSeqs[k] > e.reproposeBarrier {
		e.reproposeBarrier = lastSeqs[k]
	}
	e.pendingRepropose = e.pendingRepropose[:0]
	for _, c := range cands {
		e.pendingRepropose = append(e.pendingRepropose, c)
	}
	sort.Slice(e.pendingRepropose, func(i, j int) bool {
		return e.pendingRepropose[i].Seq < e.pendingRepropose[j].Seq
	})
	e.ring.Recordf("adopt-recovery", e.reproposeBarrier, types.ZeroHash,
		"pending=%d committed=%d", len(e.pendingRepropose), e.committedSeq)
}

// drainRepropose re-binds recovered values once the primary has caught up
// to the barrier; slots already filled by synced blocks are skipped.
func (e *Engine) drainRepropose(now time.Time) []consensus.Outbound {
	if !e.IsPrimary() || e.viewChanging || e.committedSeq < e.reproposeBarrier || len(e.pendingRepropose) == 0 {
		return nil
	}
	pending := e.pendingRepropose
	e.pendingRepropose = nil
	var out []consensus.Outbound
	for _, c := range pending {
		if c.Seq <= e.committedSeq {
			continue // chain sync already delivered this slot
		}
		o, _ := e.Propose(c.Txs, now)
		out = append(out, o...)
	}
	return out
}

func (e *Engine) onNewView(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	nv, err := types.DecodeViewChange(env.Payload)
	if err != nil || nv.NewView < e.view || nv.Cluster != e.cluster {
		return nil, nil
	}
	if env.From != e.topo.Primary(e.cluster, nv.NewView) {
		return nil, nil
	}
	e.installView(nv.NewView, now)
	return nil, nil
}

func (e *Engine) installView(v uint64, now time.Time) {
	e.viewChanging = false
	if v <= e.view {
		return
	}
	e.view = v
	e.metrics.VC().Inc()
	// Best effort: the installed view is recoverable from peers; the promise
	// above is what safety rides on.
	e.persistViewState()
	e.ring.Recordf("install-view", e.committedSeq, types.ZeroHash, "v=%d", v)
	// Reset the proposal chain to committed state. Uncommitted bound
	// instances are RETAINED: like Paxos acceptors, this node keeps the
	// values it voted for (and any prepared certificate it holds) so later
	// view changes can still recover them — a value may hold a commit quorum
	// in the deposed view. Their timers restart so the new primary gets a
	// full window to re-bind them; the new view's proposals overwrite them
	// slot by slot.
	e.proposedSeq = e.committedSeq
	e.proposedHead = e.committedHead
	for seq, inst := range e.instances {
		if seq > e.committedSeq && !inst.committed {
			inst.deadline = now.Add(e.timeout)
		}
	}
	e.parked = make(map[uint64]*types.Envelope)
}
