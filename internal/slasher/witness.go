package slasher

import (
	"sync"

	"sharper/internal/consensus"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// Witness is the oracle's deployment-wide half: a fabric decorator that tees
// every replica's inbound envelopes through one Slasher per receiver. A
// proof therefore means "one replica held both signed claims", which is
// what the adversary's Equivocate rule aims at (its two recipient halves
// overlap in one replica). Only senders of Byzantine clusters are indexed.
//
// Wrap matches core.Config.WrapFabric and composes with adversary.Wrap in
// either order: the injector rewrites sends, the witness reads receives.
type Witness struct {
	topo *consensus.Topology
	// verifier returns the receiver's signature verifier. It is called on
	// the first envelope a receiver gets from a Byzantine cluster, after the
	// deployment has built its keys.
	verifier func(receiver types.NodeID) SigVerifier
	done     chan struct{}
	stop     sync.Once

	mu      sync.Mutex
	inboxes map[types.NodeID]chan *types.Envelope
	held    map[types.NodeID]*Slasher
}

// NewWitness creates a Witness over the deployment topology.
func NewWitness(topo *consensus.Topology, verifier func(receiver types.NodeID) SigVerifier) *Witness {
	return &Witness{
		topo: topo, verifier: verifier, done: make(chan struct{}),
		inboxes: make(map[types.NodeID]chan *types.Envelope),
		held:    make(map[types.NodeID]*Slasher),
	}
}

// Wrap decorates replica id's fabric with the witness's inbox tee.
func (w *Witness) Wrap(id types.NodeID, inner transport.Fabric) transport.Fabric {
	return &teeFabric{Fabric: inner, w: w}
}

// Close stops every tee. The fabrics it wrapped deliver nothing afterwards.
func (w *Witness) Close() { w.stop.Do(func() { close(w.done) }) }

type teeFabric struct {
	transport.Fabric
	w *Witness
}

// Register returns the teed inbox of id. A restarted replica registers
// again and gets the same inbox, so its index survives the restart.
func (f *teeFabric) Register(id types.NodeID) <-chan *types.Envelope {
	w := f.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if out, ok := w.inboxes[id]; ok {
		return out
	}
	// Unbuffered: the fabric's inbox stays the replica's only queue, so
	// the tee changes neither its depth nor when the fabric drops.
	out := make(chan *types.Envelope)
	w.inboxes[id] = out
	go w.tee(id, f.Fabric.Register(id), out)
	return out
}

func (w *Witness) tee(receiver types.NodeID, in <-chan *types.Envelope, out chan<- *types.Envelope) {
	for {
		select {
		case env := <-in:
			w.observe(receiver, env)
			select {
			case out <- env:
			case <-w.done:
				return
			}
		case <-w.done:
			return
		}
	}
}

func (w *Witness) observe(receiver types.NodeID, env *types.Envelope) {
	cl, ok := w.topo.ClusterOf(env.From)
	if !ok || w.topo.ModelOf(cl) != types.Byzantine {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.held[receiver]
	if s == nil {
		s = New(Config{Verifier: w.verifier(receiver)})
		w.held[receiver] = s
	}
	s.Observe(env)
}

// Proofs returns every distinct proof any receiver holds.
func (w *Witness) Proofs() []*FraudProof {
	w.mu.Lock()
	defer w.mu.Unlock()
	seen := make(map[string]bool)
	var out []*FraudProof
	for _, s := range w.held {
		for _, p := range s.Proofs() {
			if !seen[p.Key()] {
				seen[p.Key()] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// Indexed returns how many claims naming cluster the receivers hold.
func (w *Witness) Indexed(cluster types.ClusterID) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, s := range w.held {
		for k := range s.claims {
			if k.cluster == cluster {
				n++
			}
		}
	}
	return n
}
