package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"hash"
	"sync"
)

// FrameTagSize is the length of a wire-frame authenticator tag.
const FrameTagSize = sha256.Size

// WireKey derives the shared frame-authentication key of a deployment from
// its configured secret string. Every process of one deployment must be
// started with the same secret; frames carrying a tag computed under a
// different key are discarded before they reach any decoder.
func WireKey(secret string) []byte {
	sum := sha256.Sum256([]byte("sharper-wire-v1:" + secret))
	return sum[:]
}

// FrameTag computes the HMAC-SHA256 authenticator the TCP backend appends to
// every frame. This is transport-level authentication (§2.1's pairwise
// authenticated channels, which the simulated fabric gets for free); it is
// independent of the per-node protocol-level MAC/ed25519 signatures.
func FrameTag(key, frame []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(frame)
	return mac.Sum(nil)
}

// VerifyFrameTag reports whether tag authenticates frame under key, in
// constant time.
func VerifyFrameTag(key, frame, tag []byte) bool {
	if len(tag) != FrameTagSize {
		return false
	}
	return hmac.Equal(tag, FrameTag(key, frame))
}

// FrameAuth is the hot-path form of FrameTag/VerifyFrameTag: one instance
// per fabric holds a pool of keyed HMAC states, so tagging or verifying a
// frame costs a Reset instead of rebuilding the two SHA-256 key blocks (and
// their allocations) that hmac.New pays on every call. Link goroutines that
// own their whole read or write path should hold a FrameSession instead and
// skip the pool round-trip per frame too.
type FrameAuth struct {
	key  []byte
	pool sync.Pool
}

// NewFrameAuth builds a pooled authenticator for key (see WireKey).
func NewFrameAuth(key []byte) *FrameAuth {
	k := append([]byte(nil), key...)
	return &FrameAuth{key: k, pool: sync.Pool{New: func() any { return hmac.New(sha256.New, k) }}}
}

// AppendTag appends the authenticator over msg to dst and returns the
// extended slice. msg may alias dst (the tag of a frame being assembled in
// place): msg is fully consumed before dst grows.
func (a *FrameAuth) AppendTag(dst, msg []byte) []byte {
	m := a.pool.Get().(hash.Hash)
	m.Reset()
	m.Write(msg)
	dst = m.Sum(dst)
	a.pool.Put(m)
	return dst
}

// Verify reports whether tag authenticates msg, in constant time.
func (a *FrameAuth) Verify(msg, tag []byte) bool {
	if len(tag) != FrameTagSize {
		return false
	}
	m := a.pool.Get().(hash.Hash)
	m.Reset()
	m.Write(msg)
	var sum [FrameTagSize]byte
	got := m.Sum(sum[:0])
	a.pool.Put(m)
	return hmac.Equal(tag, got)
}

// NewSession returns a session authenticator for one link direction: a
// dedicated rolling keyed HMAC state owned by a single goroutine (a link's
// writer or its read loop), so per-frame authentication is a Reset on local
// state — no pool synchronization, no per-frame keyed setup. Sessions must
// not be shared between goroutines.
func (a *FrameAuth) NewSession() *FrameSession {
	return &FrameSession{m: hmac.New(sha256.New, a.key)}
}

// FrameSession is one keyed HMAC state with its own tag buffer: the per-link
// form of FrameAuth (see NewSession), and what MACKeyring pools per sender.
type FrameSession struct {
	m   hash.Hash
	sum [FrameTagSize]byte
}

// AppendTag appends the authenticator over msg to dst and returns the
// extended slice. msg may alias dst.
func (s *FrameSession) AppendTag(dst, msg []byte) []byte {
	s.m.Reset()
	s.m.Write(msg)
	return s.m.Sum(dst)
}

// Verify reports whether tag authenticates msg, in constant time.
func (s *FrameSession) Verify(msg, tag []byte) bool {
	if len(tag) != FrameTagSize {
		return false
	}
	s.m.Reset()
	s.m.Write(msg)
	got := s.m.Sum(s.sum[:0])
	return hmac.Equal(tag, got)
}
