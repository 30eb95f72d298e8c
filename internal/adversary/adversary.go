// Package adversary is the attack injector: a transport.Fabric decorator
// that turns up to f nodes per cluster Byzantine at the fabric boundary.
// Because it wraps the Fabric interface rather than any engine, the same
// attack scripts run unchanged over the simulated Network and the TCP
// backend, and against every consensus engine in the repo.
//
// A compromised node's outbound traffic is rewritten according to a set of
// Rules: conflicting proposals to overlapping recipient halves
// (Equivocate), digest corruption with a valid re-signature (Tamper),
// selective per-peer/per-type drops (Withhold), byte-identical re-delivery
// (Replay), cross-shard grant-then-withhold lock starvation (Starve), and
// conflicting view-change floods (VCSpam). Mutated envelopes are re-signed
// with the compromised node's own key — a Byzantine node signing its own
// lies — so they pass honest verification and exercise the protocol guards
// rather than the signature check.
//
// Honest nodes' fabrics pass through untouched; the injector never forges
// traffic from a node it does not hold a signer for.
package adversary

import (
	"sync"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// Kind enumerates the attack cells of the matrix.
type Kind int

const (
	// Equivocate splits every matching multicast into two conflicting
	// variants sent to overlapping recipient halves. The overlap node — any
	// two quorums intersect — receives both signed envelopes, so the
	// equivocation oracle (slasher.Witness) indexing its inbox can prove it.
	Equivocate Kind = iota + 1
	// Tamper corrupts the digest field for the victim set and re-signs, so
	// the envelope passes authentication and fails the digest check.
	Tamper
	// Withhold silently drops matching sends to the victim set.
	Withhold
	// Replay delivers every matching envelope twice, byte-identical.
	Replay
	// Starve performs cross-shard grant-then-withhold: XPropose reaches
	// only the initiator's own cluster (which grants and locks its slot)
	// while other involved clusters never hear of it, and the withdrawal
	// XAbort is suppressed — so the granted locks sit until the §3.2
	// timeout. Limit bounds how many proposal rounds are starved.
	Starve
	// VCSpam floods the offender's cluster with pairs of view-change
	// messages claiming two different chain heads for one height —
	// liveness noise that is also provable equivocation.
	VCSpam
)

var kindNames = map[Kind]string{
	Equivocate: "equivocate", Tamper: "tamper", Withhold: "withhold",
	Replay: "replay", Starve: "starve", VCSpam: "vc-spam",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// Rule scripts one attack behaviour of a compromised node.
type Rule struct {
	Kind Kind
	// Types restricts the rule to these message types. Empty means the
	// kind's default: Equivocate/Tamper → a Byzantine cluster's proposals,
	// Replay → votes, and a Byzantine cluster's commits (a crash primary's
	// commit is its decision, not a vote), Withhold → everything (bounded by
	// Victims), Starve → cross-shard proposal/abort, VCSpam → triggered by
	// any ordering send.
	Types []types.MsgType
	// Victims restricts Tamper/Withhold to these recipients; empty = all.
	Victims []types.NodeID
	// Limit caps rule applications (0 = unlimited). Starve counts starved
	// proposal rounds; others count transformed envelopes.
	Limit int
}

type rule struct {
	Rule
	applied int
}

func (r *rule) exhausted() bool { return r.Limit > 0 && r.applied >= r.Limit }

// matches reports whether the rule applies to a message of type t sent by a
// node of a Byzantine cluster (byz) or a crash one. The ordering kinds are
// shared by every policy, so the defaults read the sender's model to keep
// the scope each had when kinds named their protocol.
func (r *rule) matches(t types.MsgType, byz bool) bool {
	if r.exhausted() {
		return false
	}
	if len(r.Types) > 0 {
		for _, mt := range r.Types {
			if mt == t {
				return true
			}
		}
		return false
	}
	switch r.Kind {
	case Equivocate, Tamper:
		return byz && t == types.MsgPropose
	case Replay:
		return t == types.MsgVote || byz && t == types.MsgCommit
	case Withhold:
		return true
	case Starve:
		return t == types.MsgXPropose || t == types.MsgXAbort
	default:
		return false
	}
}

func (r *rule) targets(to types.NodeID) bool {
	if len(r.Victims) == 0 {
		return true
	}
	for _, v := range r.Victims {
		if v == to {
			return true
		}
	}
	return false
}

// Event records one injected action, for test assertions ("the attack
// actually fired") and post-mortem artifacts.
type Event struct {
	Kind Kind
	Msg  types.MsgType
	From types.NodeID
	To   types.NodeID
}

const maxEvents = 1 << 12

type compromised struct {
	signer  crypto.Signer
	cluster types.ClusterID
	byz     bool // the cluster runs the Byzantine model
	rules   []*rule
}

// Adversary holds the shared attack state across all wrapped fabrics of a
// deployment.
type Adversary struct {
	mu      sync.Mutex
	topo    *consensus.Topology
	comp    map[types.NodeID]*compromised
	events  []Event
	spamSeq uint64
	spamGas uint64 // send counter driving the VCSpam cadence
}

// New creates an Adversary over the deployment topology (needed to aim
// cluster-scoped attacks like Starve and VCSpam).
func New(topo *consensus.Topology) *Adversary {
	return &Adversary{topo: topo, comp: make(map[types.NodeID]*compromised)}
}

// Compromise marks id Byzantine with the given attack script. signer must be
// id's own signer so mutated envelopes carry valid signatures; the caller is
// responsible for keeping compromised counts within f per cluster (the
// safety assertions assume it, exactly like the paper's fault bound).
func (a *Adversary) Compromise(id types.NodeID, signer crypto.Signer, rules ...Rule) {
	cl, _ := a.topo.ClusterOf(id)
	c := &compromised{signer: signer, cluster: cl, byz: a.topo.ModelOf(cl) == types.Byzantine}
	for i := range rules {
		c.rules = append(c.rules, &rule{Rule: rules[i]})
	}
	a.mu.Lock()
	a.comp[id] = c
	a.mu.Unlock()
}

// Events returns a snapshot of the injected-action log.
func (a *Adversary) Events() []Event {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Event, len(a.events))
	copy(out, a.events)
	return out
}

// Applied returns how many times the given attack kind fired for node id.
func (a *Adversary) Applied(id types.NodeID, k Kind) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, e := range a.events {
		if e.From == id && e.Kind == k {
			n++
		}
	}
	return n
}

func (a *Adversary) record(e Event) {
	if len(a.events) < maxEvents {
		a.events = append(a.events, e)
	}
}

// Wrap decorates a node's fabric with the attack injector. Its signature
// matches core's WrapFabric hook, so a test passes the method value
// directly. Honest nodes pay one map lookup per send.
func (a *Adversary) Wrap(id types.NodeID, inner transport.Fabric) transport.Fabric {
	return &fabric{a: a, inner: inner}
}

type fabric struct {
	a     *Adversary
	inner transport.Fabric
}

func (f *fabric) Register(id types.NodeID) <-chan *types.Envelope { return f.inner.Register(id) }
func (f *fabric) Stats() *transport.Stats                         { return f.inner.Stats() }
func (f *fabric) Close()                                          { f.inner.Close() }

func (f *fabric) Send(to types.NodeID, env *types.Envelope) {
	a := f.a
	a.mu.Lock()
	c := a.comp[env.From]
	if c == nil {
		a.mu.Unlock()
		f.inner.Send(to, env)
		return
	}
	deliveries := a.transformLocked(c, to, env)
	spam := a.maybeSpamLocked(c, env)
	a.mu.Unlock()
	for _, d := range deliveries {
		f.inner.Send(to, d)
	}
	f.deliverSpam(c, spam)
}

func (f *fabric) Multicast(to []types.NodeID, env *types.Envelope) {
	a := f.a
	a.mu.Lock()
	c := a.comp[env.From]
	if c == nil {
		a.mu.Unlock()
		f.inner.Multicast(to, env)
		return
	}
	groups, handled := a.equivocateLocked(c, to, env)
	if !handled {
		groups, handled = a.starveLocked(c, to, env)
	}
	if handled {
		spam := a.maybeSpamLocked(c, env)
		a.mu.Unlock()
		for _, g := range groups {
			f.inner.Multicast(g.to, g.env)
		}
		f.deliverSpam(c, spam)
		return
	}
	perDst := make(map[types.NodeID][]*types.Envelope, len(to))
	for _, dst := range to {
		perDst[dst] = a.transformLocked(c, dst, env)
	}
	spam := a.maybeSpamLocked(c, env)
	a.mu.Unlock()
	for _, dst := range to {
		for _, d := range perDst[dst] {
			f.inner.Send(dst, d)
		}
	}
	f.deliverSpam(c, spam)
}

type group struct {
	to  []types.NodeID
	env *types.Envelope
}

// equivocateLocked handles the Equivocate rule on a multicast: the original
// goes to the first half plus the witness, a conflicting re-signed variant
// to the second half plus the witness.
func (a *Adversary) equivocateLocked(c *compromised, to []types.NodeID, env *types.Envelope) ([]group, bool) {
	for _, r := range c.rules {
		if r.Kind != Equivocate || !r.matches(env.Type, c.byz) {
			continue
		}
		variant := a.conflictingVariant(c, env)
		if variant == nil {
			return nil, false
		}
		r.applied++
		mid := len(to) / 2
		hi := mid + 1
		if hi > len(to) {
			hi = len(to)
		}
		for _, dst := range to {
			a.record(Event{Kind: Equivocate, Msg: env.Type, From: env.From, To: dst})
		}
		return []group{{to: to[:hi], env: env}, {to: to[mid:], env: variant}}, true
	}
	return nil, false
}

// conflictingVariant builds a second, validly signed envelope binding a
// different digest to the same (view, seq) slot. When the batch has two or
// more transactions the variant is a semantically valid reordering — honest
// nodes will happily vote for it — otherwise only the digest field is
// swapped, which honest receivers reject but still counts as a conflicting
// signed claim.
func (a *Adversary) conflictingVariant(c *compromised, env *types.Envelope) *types.Envelope {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil {
		return nil
	}
	m2 := *m
	if len(m.Txs) >= 2 {
		rev := make([]*types.Transaction, len(m.Txs))
		for i, tx := range m.Txs {
			rev[len(rev)-1-i] = tx
		}
		m2.Txs = rev
		m2.Digest = types.BatchDigest(rev)
	} else {
		m2.Digest = types.HashBytes(append(m.Digest[:], 'e', 'q'))
	}
	payload := m2.Encode(nil)
	return &types.Envelope{Type: env.Type, From: env.From, Payload: payload, Sig: c.signer.Sign(payload)}
}

// starveLocked handles the Starve rule on an XPropose multicast: one
// application per proposal round, delivering only to the offender's own
// cluster. (XAbort suppression stays per-recipient in transformLocked and
// does not consume the round budget.)
func (a *Adversary) starveLocked(c *compromised, to []types.NodeID, env *types.Envelope) ([]group, bool) {
	if env.Type != types.MsgXPropose {
		return nil, false
	}
	for _, r := range c.rules {
		if r.Kind != Starve || !r.matches(env.Type, c.byz) {
			continue
		}
		r.applied++
		var own []types.NodeID
		for _, dst := range to {
			if cl, ok := a.topo.ClusterOf(dst); ok && cl == c.cluster {
				own = append(own, dst)
				continue
			}
			a.record(Event{Kind: Starve, Msg: env.Type, From: env.From, To: dst})
		}
		return []group{{to: own, env: env}}, true
	}
	return nil, false
}

// transformLocked applies the first matching per-recipient rule and returns
// the envelopes to actually deliver (empty = withheld).
func (a *Adversary) transformLocked(c *compromised, to types.NodeID, env *types.Envelope) []*types.Envelope {
	for _, r := range c.rules {
		if !r.matches(env.Type, c.byz) {
			continue
		}
		switch r.Kind {
		case Withhold:
			if !r.targets(to) {
				continue
			}
			r.applied++
			a.record(Event{Kind: Withhold, Msg: env.Type, From: env.From, To: to})
			return nil
		case Starve:
			// While proposal rounds remain to starve, the withdrawal XAbort
			// is suppressed too — that is the grant-then-withhold: granted
			// locks are released only by the §3.2 timeout. Direct XPropose
			// sends to foreign clusters are likewise dropped.
			if env.Type == types.MsgXAbort {
				a.record(Event{Kind: Starve, Msg: env.Type, From: env.From, To: to})
				return nil
			}
			if cl, ok := a.topo.ClusterOf(to); ok && cl == c.cluster {
				continue
			}
			a.record(Event{Kind: Starve, Msg: env.Type, From: env.From, To: to})
			return nil
		case Tamper:
			if !r.targets(to) {
				continue
			}
			if t := a.tamper(c, env); t != nil {
				r.applied++
				a.record(Event{Kind: Tamper, Msg: env.Type, From: env.From, To: to})
				return []*types.Envelope{t}
			}
		case Replay:
			r.applied++
			a.record(Event{Kind: Replay, Msg: env.Type, From: env.From, To: to})
			return []*types.Envelope{env, env}
		}
	}
	return []*types.Envelope{env}
}

// tamper corrupts the digest field of a consensus payload and re-signs, so
// authentication passes and the digest check must catch it.
func (a *Adversary) tamper(c *compromised, env *types.Envelope) *types.Envelope {
	payload := make([]byte, len(env.Payload))
	copy(payload, env.Payload)
	if len(payload) >= 48 {
		// ConsensusMsg layout: View(8) | Seq(8) | Digest(32) | …
		for i := 16; i < 20; i++ {
			payload[i] ^= 0xff
		}
	} else if len(payload) > 0 {
		payload[len(payload)-1] ^= 0xff
	} else {
		return nil
	}
	return &types.Envelope{Type: env.Type, From: env.From, Payload: payload, Sig: c.signer.Sign(payload)}
}

// spamPair is a ready-to-send conflicting view-change pair.
type spamPair struct {
	targets []types.NodeID
	envs    []*types.Envelope
}

// maybeSpamLocked emits a conflicting view-change pair every few consensus
// sends while a VCSpam rule has budget.
func (a *Adversary) maybeSpamLocked(c *compromised, trigger *types.Envelope) *spamPair {
	switch trigger.Type {
	case types.MsgPropose, types.MsgVote, types.MsgCommit:
	default:
		return nil
	}
	for _, r := range c.rules {
		if r.Kind != VCSpam || r.exhausted() {
			continue
		}
		a.spamGas++
		if a.spamGas%4 != 1 {
			return nil
		}
		r.applied++
		a.spamSeq++
		nv := 1_000_000 + a.spamSeq // far above any live view: recorded, never joined
		mk := func(tag byte) *types.Envelope {
			vc := &types.ViewChange{
				NewView: nv, Cluster: c.cluster, LastSeq: 0,
				LastHash: types.HashBytes([]byte{tag, byte(a.spamSeq), byte(a.spamSeq >> 8), 's', 'p', 'a', 'm'}),
			}
			payload := vc.Encode(nil)
			return &types.Envelope{Type: types.MsgViewChange, From: trigger.From, Payload: payload, Sig: c.signer.Sign(payload)}
		}
		var targets []types.NodeID
		for _, m := range a.topo.Members(c.cluster) {
			if m != trigger.From {
				targets = append(targets, m)
			}
		}
		for _, dst := range targets {
			a.record(Event{Kind: VCSpam, Msg: types.MsgViewChange, From: trigger.From, To: dst})
		}
		return &spamPair{targets: targets, envs: []*types.Envelope{mk('a'), mk('b')}}
	}
	return nil
}

func (f *fabric) deliverSpam(c *compromised, s *spamPair) {
	if s == nil {
		return
	}
	for _, env := range s.envs {
		f.inner.Multicast(s.targets, env)
	}
}
