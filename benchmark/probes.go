package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"
)

// Layer probes replay the workload's own transaction and block shapes through
// each layer's exported functions and time the calls, outside any deployment.
// A probe runs probeRounds timed batches of a fixed number of calls and
// reports the median batch, so its call counts are the same on every run and
// one disturbed batch does not decide the number. Each batch is one span in
// the trace (a span per call would cost more than most of the calls).
const probeRounds = 5

// prober holds the inputs every probe shares.
type prober struct {
	w       workload
	rec     *recorder
	scratch string
	seed    int64
	txs     []*Tx // generated with the workload's mix, intra-shard ones only in cluster 0
	out     map[string]metric
}

// batchSize is how many transactions one block of this workload carries.
func (p *prober) batchSize() int { return p.w.batch }

// timeBatches runs fn(i) for i in [0, rounds·calls) in probeRounds timed
// batches and returns the median time per call in nanoseconds.
func (p *prober) timeBatches(name string, calls int, fn func(i int)) float64 {
	per := make([]float64, 0, probeRounds)
	for r := 0; r < probeRounds; r++ {
		start := time.Now()
		for i := r * calls; i < (r+1)*calls; i++ {
			fn(i)
		}
		end := time.Now()
		p.rec.probe(name, start, end, calls)
		per = append(per, float64(end.Sub(start))/float64(calls))
	}
	return median(per)
}

func (p *prober) set(name string, v float64, unit string) { p.out[name] = metric{v, unit} }

// freshTxs returns n transactions decoded from the wire form of the probe's
// inputs: new objects with cold digest caches, as a replica sees them.
func (p *prober) freshTxs(n int) []*Tx {
	out := make([]*Tx, 0, n)
	for len(out) < n {
		k := min(n-len(out), len(p.txs))
		s, err := DecodeSubmit((&Submit{Txs: p.txs[:k]}).Encode(nil))
		if err != nil {
			panic(fmt.Sprintf("probe: own Submit does not decode: %v", err)) // codec bug, not input
		}
		out = append(out, s.Txs...)
	}
	return out
}

// blocks chains n blocks of the workload's batch size for cluster 0.
func (p *prober) blocks(n int) []*Block {
	bs := p.batchSize()
	txs := p.freshTxs(n * bs)
	// Transaction IDs must be unique along a chain.
	for i, tx := range txs {
		tx.ID.Seq = uint64(i + 1)
	}
	out := make([]*Block, n)
	parent := GenesisHash()
	for i := range out {
		out[i] = &Block{Txs: txs[i*bs : (i+1)*bs], Parents: []Hash{parent}}
		parent = out[i].Hash()
	}
	return out
}

// runProbes runs every layer probe for the workload. scratch is where the
// storage probe keeps its files.
func runProbes(w workload, seed int64, rec *recorder, scratch string) (map[string]metric, error) {
	p := &prober{w: w, rec: rec, scratch: scratch, seed: seed, out: make(map[string]metric)}
	// Single-cluster inputs: every transaction is intra-shard in cluster 0,
	// with the workload's op shape.
	g := newGenerator(mix{shards: 1, accounts: accountsPerShard}, seed)
	for i := 0; i < 2048; i++ {
		ops := g.next()
		p.txs = append(p.txs, &Tx{
			ID: TxID{Client: driverIDBase, Seq: uint64(i + 1)}, Client: driverIDBase,
			Timestamp: time.Now().UnixNano(), Ops: ops, Involved: g.involved(ops),
		})
	}
	for _, probe := range []func() error{
		p.probeTypes, p.probeCrypto, p.probeMempool, p.probeEngines, p.probeConflictTable,
		p.probeLedger, p.probeState, p.probeStorage, p.probeTCP, p.probeSim,
	} {
		if err := probe(); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
	}
	return p.out, nil
}

func (p *prober) probeTypes() error {
	const calls = 2000
	n := probeRounds * calls
	payload := (&Block{Txs: p.txs[:p.batchSize()], Parents: []Hash{GenesisHash()}}).Encode(nil)
	env := &Envelope{Type: MsgSubmit, From: 1, Payload: payload}
	if p.w.byzantine {
		env.Sig = make([]byte, 32)
	}
	buf := make([]byte, 0, len(payload)+64)
	p.set("types.envelope_encode_ns", p.timeBatches("types.envelope_encode", calls, func(int) {
		buf = env.Encode(buf[:0])
	}), "ns")
	wire := env.Encode(nil)
	p.set("types.envelope_decode_ns", p.timeBatches("types.envelope_decode", calls, func(int) {
		if _, _, err := DecodeEnvelope(wire); err != nil {
			panic(err)
		}
	}), "ns")
	submit := (&Submit{Txs: p.txs[:1]}).Encode(nil)
	p.set("types.submit_decode_ns", p.timeBatches("types.submit_decode", calls, func(int) {
		if _, err := DecodeSubmit(submit); err != nil {
			panic(err)
		}
	}), "ns")
	fresh := p.freshTxs(n)
	p.set("types.tx_digest_ns", p.timeBatches("types.tx_digest", calls, func(i int) {
		fresh[i].Digest()
	}), "ns")
	const hashCalls = 400
	blocks := make([]*Block, probeRounds*hashCalls)
	for i := range blocks {
		blocks[i] = &Block{Txs: p.txs[:p.batchSize()], Parents: []Hash{GenesisHash()}}
	}
	p.set("types.block_hash_ns", p.timeBatches("types.block_hash", hashCalls, func(i int) {
		blocks[i].Hash()
	}), "ns")
	return nil
}

func (p *prober) probeCrypto() error {
	const calls = 1000
	rng := rand.New(rand.NewSource(p.seed))
	payload := EncodeTxBatch(nil, p.txs[:p.batchSize()])

	mac := NewMACKeyring()
	if err := mac.Generate(1, rng); err != nil {
		return err
	}
	signer, err := mac.SignerFor(1)
	if err != nil {
		return err
	}
	var sig []byte
	p.set("crypto.mac_sign_ns", p.timeBatches("crypto.mac_sign", calls, func(int) {
		sig = signer.Sign(payload)
	}), "ns")
	p.set("crypto.mac_verify_ns", p.timeBatches("crypto.mac_verify", calls, func(int) {
		if !mac.Verify(1, payload, sig) {
			panic("probe: MAC does not verify")
		}
	}), "ns")

	window := DefaultVerifyWindow
	from := make([]NodeID, window)
	payloads, sigs := make([][]byte, window), make([][]byte, window)
	for i := range from {
		from[i], payloads[i], sigs[i] = 1, payload, sig
	}
	perWindow := p.timeBatches("crypto.batch_verify", calls/window+1, func(int) {
		if !mac.VerifyBatch(from, payloads, sigs) {
			panic("probe: MAC batch does not verify")
		}
	})
	p.set("crypto.batch_verify_ns_per_sig", perWindow/float64(window), "ns")

	ed := NewKeyring()
	if err := ed.Generate(1, rng); err != nil {
		return err
	}
	edSigner, err := ed.SignerFor(1)
	if err != nil {
		return err
	}
	edSig := edSigner.Sign(payload)
	p.set("crypto.ed25519_verify_ns", p.timeBatches("crypto.ed25519_verify", 100, func(int) {
		if !ed.Verify(1, payload, edSig) {
			panic("probe: ed25519 signature does not verify")
		}
	}), "ns")

	session := NewFrameAuth(WireKey("probe")).NewSession()
	tag := make([]byte, 0, 64)
	p.set("crypto.frame_tag_ns", p.timeBatches("crypto.frame_tag", calls, func(int) {
		tag = session.AppendTag(tag[:0], payload)
	}), "ns")

	// Verify pool: signed envelopes in, verdict-marked envelopes out.
	const envs = 4000
	in := make(chan *Envelope, envs)
	pool := NewVerifyPool(mac, in, 0, 0, window)
	per := p.timeBatches("crypto.verifypool", envs, func(i int) {
		in <- &Envelope{Type: MsgSubmit, From: 1, Payload: payload, Sig: sig}
		if (i+1)%envs == 0 {
			for k := 0; k < envs; k++ {
				<-pool.Out()
			}
		}
	})
	pool.Close()
	p.set("crypto.verifypool_env_per_s", 1e9/per, "1/s")
	return nil
}

func (p *prober) probeMempool() error {
	const calls = 2000
	n := probeRounds * calls
	txs := p.freshTxs(n)
	for i, tx := range txs {
		tx.ID.Seq = uint64(i + 1) // distinct digests
	}
	pool := NewPool(PoolConfig{MaxCount: 4 * n})
	now := time.Now()
	p.set("mempool.admit_ns", p.timeBatches("mempool.admit", calls, func(i int) {
		if pool.Admit(txs[i], now) != PoolAdmitted {
			panic("probe: mempool refused a fresh transaction")
		}
	}), "ns")
	p.set("mempool.dedup_hit_ns", p.timeBatches("mempool.dedup_hit", calls, func(i int) {
		if pool.Admit(txs[i], now) != PoolDuplicate {
			panic("probe: mempool admitted a duplicate")
		}
	}), "ns")
	bs := p.batchSize()
	perDrain := p.timeBatches("mempool.drain", calls/bs, func(int) {
		if len(pool.Drain(bs)) != bs {
			panic("probe: mempool drained short")
		}
	})
	p.set("mempool.drain_ns_per_tx", perDrain/float64(bs), "ns")
	digests := make([]Hash, n)
	for i, tx := range txs {
		digests[i] = tx.Digest()
	}
	p.set("mempool.mark_committed_ns", p.timeBatches("mempool.mark_committed", calls, func(i int) {
		pool.MarkCommitted(digests[i], now)
	}), "ns")
	return nil
}

// probeEngines pumps a 3-replica Paxos cluster and a 4-replica PBFT cluster
// in memory: propose a block of the workload's batch size, deliver every
// message until quiescence, repeat. No fabric, no node runtime; PBFT signs and
// verifies with MAC authenticators inline. The message counts repeat exactly.
func (p *prober) probeEngines() error {
	rng := rand.New(rand.NewSource(p.seed))
	build := func(byz bool) (map[NodeID]IntraEngine, NodeID) {
		model := CrashOnly
		if byz {
			model = Byzantine
		}
		topo := UniformTopology(model, 1, 1)
		keys := NewMACKeyring()
		engines := make(map[NodeID]IntraEngine)
		for _, id := range topo.AllNodes() {
			if !byz {
				engines[id] = NewPaxos(PaxosConfig{Topology: topo, Cluster: 0, Self: id, Timeout: time.Hour}, GenesisHash())
				continue
			}
			if err := keys.Generate(id, rng); err != nil {
				panic(err)
			}
			signer, err := keys.SignerFor(id)
			if err != nil {
				panic(err)
			}
			engines[id] = NewPBFT(PBFTConfig{Topology: topo, Cluster: 0, Self: id, Signer: signer, Verifier: keys, Timeout: time.Hour}, GenesisHash())
		}
		return engines, topo.Primary(0, 0)
	}
	for _, e := range []struct {
		name string
		byz  bool
	}{{"paxos", false}, {"pbft", true}} {
		const blocksPerRound = 200
		engines, primary := build(e.byz)
		bs := p.batchSize()
		txs := p.freshTxs(probeRounds * blocksPerRound * bs)
		for i, tx := range txs {
			tx.ID.Seq = uint64(i + 1)
		}
		type routed struct {
			to  NodeID
			env *Envelope
		}
		var queue []routed
		msgs, decided := 0, 0
		send := func(outs []Outbound) {
			for _, o := range outs {
				for _, to := range o.To {
					queue = append(queue, routed{to, o.Env})
				}
			}
		}
		perBlock := p.timeBatches(e.name+".pump", blocksPerRound, func(i int) {
			now := time.Now()
			outs, _ := engines[primary].Propose(txs[i*bs:(i+1)*bs], now)
			send(outs)
			for len(queue) > 0 {
				m := queue[0]
				queue = queue[1:]
				msgs++
				outs, decs := engines[m.to].Step(m.env, now)
				send(outs)
				decided += len(decs)
			}
		})
		blocks := probeRounds * blocksPerRound
		if decided != blocks*len(engines) {
			return fmt.Errorf("%s: %d replicas decided %d blocks in total, want %d each", e.name, len(engines), decided, blocks)
		}
		perMsg := float64(msgs) / float64(blocks)
		p.set(e.name+".msgs_per_block", perMsg, "count")
		p.set(e.name+".cpu_us_per_block", perBlock/1e3, "us")
		p.set(e.name+".step_ns_per_msg", perBlock/perMsg, "ns")
	}
	return nil
}

func (p *prober) probeConflictTable() error {
	table := NewConflictTable(0)
	involved := NewClusterSet(0, 1)
	deadline := time.Now().Add(time.Hour)
	var digest, parent Hash
	p.set("consensus.conflict_acquire_release_ns", p.timeBatches("consensus.conflict_table", 5000, func(i int) {
		digest[0], digest[1] = byte(i), byte(i>>8)
		if !table.Acquire(digest, involved, uint64(i), parent, deadline) || !table.Release(digest) {
			panic("probe: conflict table refused an uncontended slot vote")
		}
	}), "ns")
	return nil
}

func (p *prober) probeLedger() error {
	const perRound = 400
	blocks := p.blocks(probeRounds * perRound)
	view := NewView(0)
	var appendErr error
	p.set("ledger.append_ns_per_block", p.timeBatches("ledger.append", perRound, func(i int) {
		if err := view.Append(blocks[i]); err != nil {
			appendErr = err
		}
	}), "ns")
	if appendErr != nil {
		return fmt.Errorf("ledger append: %w", appendErr)
	}
	var verifyErr error
	perVerify := p.timeBatches("ledger.verify", 1, func(int) {
		if err := NewDAG(view).Verify(); err != nil {
			verifyErr = err
		}
	})
	if verifyErr != nil {
		return fmt.Errorf("ledger verify: %w", verifyErr)
	}
	p.set("ledger.verify_ms", perVerify/1e6, "ms")
	return nil
}

func (p *prober) probeState() error {
	const calls = 2000
	store := NewShardStore(0, ShardMap{NumShards: 1})
	m := mix{shards: 1, accounts: accountsPerShard}
	for k := 0; k < accountsPerShard; k++ {
		store.Credit(m.account(0, k), seedBalance)
	}
	txs := p.freshTxs(probeRounds * calls)
	var stateErr error
	p.set("state.validate_ns_per_tx", p.timeBatches("state.validate", calls, func(i int) {
		if err := store.Validate(txs[i]); err != nil {
			stateErr = err
		}
	}), "ns")
	p.set("state.apply_ns_per_tx", p.timeBatches("state.apply", calls, func(i int) {
		if err := store.Apply(txs[i]); err != nil {
			stateErr = err
		}
	}), "ns")
	if stateErr != nil {
		return fmt.Errorf("state: %w", stateErr)
	}
	p.set("state.fingerprint_ms", p.timeBatches("state.fingerprint", 20, func(int) {
		store.Fingerprint()
	})/1e6, "ms")
	return nil
}

// probeStorage writes the acceptor record and the commit record of a chain of
// blocks through one replica's store, with the sync policy durable workloads
// run under, then closes it and times a recovery of the same directory.
func (p *prober) probeStorage() error {
	const perRound = 200
	dir := filepath.Join(p.scratch, "probe-store")
	defer os.RemoveAll(dir)
	store, err := OpenStore(dir, StoreOptions{Sync: SyncGroup})
	if err != nil {
		return fmt.Errorf("storage open: %w", err)
	}
	blocks := p.blocks(probeRounds * perRound)
	var persistErr error
	p.set("storage.persist_accept_us", p.timeBatches("storage.persist_accept", perRound, func(i int) {
		b := blocks[i]
		if err := store.PersistAccept(uint64(i+1), 0, b.Parents[0], b.BatchDigest(), b.Txs); err != nil {
			persistErr = err
		}
	})/1e3, "us")
	if persistErr != nil {
		store.Close()
		return fmt.Errorf("storage persist: %w", persistErr)
	}
	allValid := ^uint64(0)
	p.set("storage.append_commit_us_per_block", p.timeBatches("storage.append_commit", perRound, func(i int) {
		store.AppendCommitBatch([]CommitRecord{{Seq: uint64(i + 1), Valid: allValid, Block: blocks[i]}})
	})/1e3, "us")
	if err := store.Close(); err != nil {
		return fmt.Errorf("storage close: %w", err)
	}
	var size int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			size += info.Size()
		}
	}
	p.set("storage.bytes_per_tx", float64(size)/float64(len(blocks)*p.batchSize()), "B")

	start := time.Now()
	again, err := OpenStore(dir, StoreOptions{Sync: SyncGroup})
	end := time.Now()
	if err != nil {
		return fmt.Errorf("storage recover: %w", err)
	}
	recovered := len(again.Recovered().Blocks)
	again.Close()
	if recovered != len(blocks) {
		return fmt.Errorf("storage recover: %d blocks came back, %d were written", recovered, len(blocks))
	}
	p.rec.probe("storage.recover", start, end, 1)
	p.set("storage.recover_ms", float64(end.Sub(start))/1e6, "ms")
	return nil
}

// probeTCP times the TCP fabric over loopback between two replicas: a
// ping-pong round trip, and one-way streaming cost per message.
func (p *prober) probeTCP() error {
	fabrics, client, err := TCPLoopback([]NodeID{0, 1}, WireKey("probe"), nil)
	if err != nil {
		return fmt.Errorf("tcp loopback: %w", err)
	}
	defer func() {
		client.Close()
		for _, f := range fabrics {
			f.Close()
		}
	}()
	in0, in1 := fabrics[0].Register(0), fabrics[1].Register(1)
	payload := EncodeTxBatch(nil, p.txs[:p.batchSize()])
	ping := &Envelope{Type: MsgSubmit, From: 0, Payload: payload}
	pong := &Envelope{Type: MsgSubmitReply, From: 1, Payload: payload}
	recv := func(ch <-chan *Envelope) error {
		select {
		case <-ch:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("tcp probe: no delivery within 5 s")
		}
	}
	// Establish both directions before timing.
	fabrics[0].Send(1, ping)
	if err := recv(in1); err != nil {
		return err
	}
	fabrics[1].Send(0, pong)
	if err := recv(in0); err != nil {
		return err
	}
	var tcpErr error
	p.set("tcpnet.roundtrip_us", p.timeBatches("tcpnet.roundtrip", 200, func(int) {
		fabrics[0].Send(1, ping)
		if err := recv(in1); err != nil {
			tcpErr = err
		}
		fabrics[1].Send(0, pong)
		if err := recv(in0); err != nil {
			tcpErr = err
		}
	})/1e3, "us")
	const stream = 2000
	p.set("tcpnet.send_ns_per_msg", p.timeBatches("tcpnet.send", stream, func(i int) {
		fabrics[0].Send(1, ping)
		if (i+1)%stream == 0 {
			for k := 0; k < stream && tcpErr == nil; k++ {
				if err := recv(in1); err != nil {
					tcpErr = err
				}
			}
		}
	}), "ns")
	return tcpErr
}

// probeSim times the simulated fabric's cost per message between two replicas
// of one cluster under the LAN configuration: Send, the delivery heap, the
// dispatcher, the inbox.
func (p *prober) probeSim() error {
	// The processing-time model would serialise the stream at 15 µs per
	// message on the clock; without it what remains is the fabric's own cost.
	cfg := DefaultNetConfig()
	cfg.ProcessingTime = 0
	net := NewSimNetwork(cfg, func(NodeID) (ClusterID, bool) { return 0, true })
	defer net.Close()
	net.Register(0)
	in1 := net.Register(1)
	env := &Envelope{Type: MsgSubmit, From: 0, Payload: EncodeTxBatch(nil, p.txs[:p.batchSize()])}
	const stream = 2000
	var simErr error
	p.set("transport.sim_send_ns_per_msg", p.timeBatches("transport.sim_send", stream, func(i int) {
		net.Send(1, env)
		if (i+1)%stream == 0 {
			for k := 0; k < stream && simErr == nil; k++ {
				select {
				case <-in1:
				case <-time.After(5 * time.Second):
					simErr = fmt.Errorf("sim probe: no delivery within 5 s")
				}
			}
		}
	}), "ns")
	return simErr
}
