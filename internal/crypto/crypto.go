// Package crypto provides the signature substrate of §2.1: every node holds
// a key pair, knows every other node's public key, and Byzantine-model
// messages carry public-key signatures over the payload. Crash-model
// deployments skip signatures entirely (channels are pairwise authenticated).
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"

	"sharper/internal/types"
)

// Both keyrings implement the full Provider surface.
var (
	_ Provider = (*Keyring)(nil)
	_ Provider = (*MACKeyring)(nil)
)

// Signer signs payloads on behalf of one node.
type Signer interface {
	// Sign returns a signature over payload, or nil if the deployment does
	// not use signatures (crash model).
	Sign(payload []byte) []byte
}

// Verifier checks signatures from any node in the deployment.
type Verifier interface {
	// Verify reports whether sig is a valid signature by `from` over payload.
	// In the crash model every message verifies.
	Verify(from types.NodeID, payload, sig []byte) bool
}

// NoopSigner implements Signer/Verifier for the crash model: no signatures.
type NoopSigner struct{}

// Sign returns nil: crash-model messages are unsigned.
func (NoopSigner) Sign([]byte) []byte { return nil }

// Verify always succeeds: pairwise-authenticated channels already guarantee
// sender identity under the crash model.
func (NoopSigner) Verify(types.NodeID, []byte, []byte) bool { return true }

// Authenticator is the deployment-wide key registry: either a Keyring
// (ed25519 signatures) or a MACKeyring (HMAC authenticators, the default —
// matching PBFT's normal-case MAC vectors).
type Authenticator interface {
	Verifier
	Generate(id types.NodeID, rng *rand.Rand) error
	SignerFor(id types.NodeID) (Signer, error)
}

// BatchVerifier verifies a whole window of signatures with one aggregate
// answer: true iff every (from, payload, sig) triple verifies. It does not
// attribute failures — a backend with a genuine aggregate check (batched
// ed25519 equations, shared keyed-MAC sessions) answers for the window as a
// whole, and on false the caller bisects into sub-windows (ultimately single
// items, where the aggregate answer is the verdict) to recover exact per-item
// verdicts. VerifyPool
// implements that bisection, which is what keeps fraud proofs sound:
// batching can never blur which envelope carried the forged signature.
type BatchVerifier interface {
	VerifyBatch(from []types.NodeID, payloads, sigs [][]byte) bool
}

// Provider is the full crypto surface a deployment wires its nodes and
// fabrics to (the narrow swappable-backend interface, after rubin-protocol's
// CryptoProvider): per-node signing and verification (Authenticator),
// windowed batch verification (BatchVerifier), and wire-frame authentication
// for the transport. All pooled state — per-sender keyed MAC sessions, frame
// HMAC pools — is owned behind this interface, so hot paths never build
// keyed state per message and backends can be swapped without touching the
// engines.
type Provider interface {
	Authenticator
	BatchVerifier
	// FrameAuth returns the transport-frame authenticator for a derived wire
	// key (see WireKey); fabrics split it into per-link sessions.
	FrameAuth(key []byte) *FrameAuth
}

// Keyring holds the ed25519 key pairs of an entire deployment. Each node
// gets a NodeSigner view that can sign with only its own private key, while
// verification uses the shared public-key directory ("all nodes have access
// to the public keys of all other nodes", §2.1).
type Keyring struct {
	mu   sync.RWMutex
	pub  map[types.NodeID]ed25519.PublicKey
	priv map[types.NodeID]ed25519.PrivateKey
}

// NewKeyring creates an empty keyring.
func NewKeyring() *Keyring {
	return &Keyring{
		pub:  make(map[types.NodeID]ed25519.PublicKey),
		priv: make(map[types.NodeID]ed25519.PrivateKey),
	}
}

// Generate creates and registers a key pair for id, using rng for
// deterministic test setups.
func (k *Keyring) Generate(id types.NodeID, rng *rand.Rand) error {
	pub, priv, err := ed25519.GenerateKey(rngReader{rng})
	if err != nil {
		return fmt.Errorf("crypto: generate key for %s: %w", id, err)
	}
	k.mu.Lock()
	k.pub[id] = pub
	k.priv[id] = priv
	k.mu.Unlock()
	return nil
}

// AddPublicKey registers a verification-only key for id. A keyring built
// solely from public keys can verify signatures and fraud proofs but cannot
// sign — the position of an external auditor checking a fraud proof.
func (k *Keyring) AddPublicKey(id types.NodeID, pub ed25519.PublicKey) {
	k.mu.Lock()
	k.pub[id] = pub
	k.mu.Unlock()
}

// PublicKey returns the registered public key for id.
func (k *Keyring) PublicKey(id types.NodeID) (ed25519.PublicKey, bool) {
	k.mu.RLock()
	defer k.mu.RUnlock()
	pub, ok := k.pub[id]
	return pub, ok
}

// Verify reports whether sig is a valid signature by from over payload.
func (k *Keyring) Verify(from types.NodeID, payload, sig []byte) bool {
	k.mu.RLock()
	pub, ok := k.pub[from]
	k.mu.RUnlock()
	if !ok || len(sig) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(pub, payload, sig)
}

// VerifyBatch reports whether every signature in the window verifies. The
// in-tree backend has no aggregate ed25519 equation (that is what a curve
// library would slot in here), so all a window saves is key-directory
// locking, one look-up per same-sender streak; verdict semantics match a loop
// of Verify exactly.
func (k *Keyring) VerifyBatch(from []types.NodeID, payloads, sigs [][]byte) bool {
	var pub ed25519.PublicKey
	for i := range from {
		if i == 0 || from[i] != from[i-1] {
			pub, _ = k.PublicKey(from[i])
		}
		if pub == nil || len(sigs[i]) != ed25519.SignatureSize {
			return false
		}
		if !ed25519.Verify(pub, payloads[i], sigs[i]) {
			return false
		}
	}
	return true
}

// FrameAuth returns a pooled wire-frame authenticator for key.
func (k *Keyring) FrameAuth(key []byte) *FrameAuth { return NewFrameAuth(key) }

// SignerFor returns a Signer bound to id's private key.
func (k *Keyring) SignerFor(id types.NodeID) (Signer, error) {
	k.mu.RLock()
	priv, ok := k.priv[id]
	k.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("crypto: no private key for %s", id)
	}
	return &NodeSigner{priv: priv}, nil
}

// NodeSigner signs with a single node's private key.
type NodeSigner struct {
	priv ed25519.PrivateKey
}

// Sign returns an ed25519 signature over payload.
func (s *NodeSigner) Sign(payload []byte) []byte {
	return ed25519.Sign(s.priv, payload)
}

// rngReader adapts math/rand to io.Reader for deterministic key generation
// in tests and benchmarks. Production deployments would use crypto/rand; the
// simulation favours reproducibility.
type rngReader struct{ rng *rand.Rand }

func (r rngReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.rng.Intn(256))
	}
	return len(p), nil
}

// MACKeyring implements the Signer/Verifier pair with HMAC-SHA256
// authenticators instead of public-key signatures. PBFT's normal case — and
// the high-throughput permissioned-blockchain deployments the paper
// benchmarks — authenticate messages with MAC vectors because asymmetric
// signatures cost two orders of magnitude more CPU; this keyring models
// that: a trusted setup distributes one secret per node, and verification
// recomputes the tag. Byzantine nodes still cannot forge tags for other
// nodes (they lack the secrets), which is the property the protocols need.
type MACKeyring struct {
	mu sync.RWMutex
	// sessions pools pre-keyed HMAC states per node, the one place a node's
	// secret lives: Verify, VerifyBatch and the signers all draw a session
	// and Reset it instead of paying hmac.New's two SHA-256 key blocks (and
	// four allocations) per message. A session is the same keyed state the
	// transport holds per link (FrameSession), tag buffer included, so a
	// verification allocates nothing.
	sessions map[types.NodeID]*sync.Pool
}

// NewMACKeyring creates an empty MAC keyring.
func NewMACKeyring() *MACKeyring {
	return &MACKeyring{sessions: make(map[types.NodeID]*sync.Pool)}
}

// Generate creates and registers a 32-byte secret for id.
func (k *MACKeyring) Generate(id types.NodeID, rng *rand.Rand) error {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(rng.Intn(256))
	}
	k.mu.Lock()
	k.sessions[id] = &sync.Pool{New: func() any {
		return &FrameSession{m: hmac.New(sha256.New, key)}
	}}
	k.mu.Unlock()
	return nil
}

// sessionsOf returns id's session pool, nil for an unregistered node.
func (k *MACKeyring) sessionsOf(id types.NodeID) *sync.Pool {
	k.mu.RLock()
	pool := k.sessions[id]
	k.mu.RUnlock()
	return pool
}

// Verify recomputes the sender's tag over payload on a pooled session.
func (k *MACKeyring) Verify(from types.NodeID, payload, sig []byte) bool {
	pool := k.sessionsOf(from)
	if pool == nil {
		return false
	}
	s := pool.Get().(*FrameSession)
	ok := s.Verify(payload, sig)
	pool.Put(s)
	return ok
}

// VerifyBatch reports whether every tag in the window verifies, holding one
// session across each same-sender streak — consensus windows are full of
// them (a primary's pre-prepares, a burst of one replica's votes).
func (k *MACKeyring) VerifyBatch(from []types.NodeID, payloads, sigs [][]byte) bool {
	var (
		pool *sync.Pool
		s    *FrameSession
	)
	for i := range from {
		if s == nil || from[i] != from[i-1] {
			if s != nil {
				pool.Put(s)
			}
			if pool = k.sessionsOf(from[i]); pool == nil {
				return false
			}
			s = pool.Get().(*FrameSession)
		}
		if !s.Verify(payloads[i], sigs[i]) {
			pool.Put(s)
			return false
		}
	}
	if s != nil {
		pool.Put(s)
	}
	return true
}

// FrameAuth returns a pooled wire-frame authenticator for key.
func (k *MACKeyring) FrameAuth(key []byte) *FrameAuth { return NewFrameAuth(key) }

// SignerFor returns a Signer bound to id's secret.
func (k *MACKeyring) SignerFor(id types.NodeID) (Signer, error) {
	pool := k.sessionsOf(id)
	if pool == nil {
		return nil, fmt.Errorf("crypto: no MAC key for %s", id)
	}
	return macSigner{pool: pool}, nil
}

type macSigner struct{ pool *sync.Pool }

// Sign returns the HMAC-SHA256 tag over payload, computed on a pooled keyed
// state (the signing half of the session-MAC machinery: no per-message keyed
// setup; only the returned tag allocates, since it escapes to the wire).
func (s macSigner) Sign(payload []byte) []byte {
	sess := s.pool.Get().(*FrameSession)
	tag := sess.AppendTag(nil, payload)
	s.pool.Put(sess)
	return tag
}
