package bench

import (
	"time"

	"sharper/internal/ahl"
	"sharper/internal/core"
	"sharper/internal/replica"
	"sharper/internal/types"
)

// SharPerSystem adapts a SharPer deployment to the harness, closed loop and
// open loop, through the same gateway client.
type SharPerSystem struct {
	D *core.Deployment
	// Timeout and MaxAttempts override the client's retransmit policy when
	// non-zero; the saturation ladder shortens them so overloaded attempts
	// release their issuer slot quickly instead of burning the full
	// retransmit schedule.
	Timeout     time.Duration
	MaxAttempts int
}

func (s SharPerSystem) newClient() *core.Client {
	c := s.D.NewClient()
	if s.Timeout > 0 {
		c.Timeout = s.Timeout
	}
	if s.MaxAttempts > 0 {
		c.MaxAttempts = s.MaxAttempts
	}
	return c
}

// NewIssuer returns a closed-loop SharPer client.
func (s SharPerSystem) NewIssuer() Issuer {
	c := s.newClient()
	return func(ops []types.Op) (time.Duration, error) {
		_, lat, err := c.Transfer(ops)
		return lat, err
	}
}

// NewOpenIssuer returns an open-loop issuer backed by a fresh client.
// Admission sheds (overloaded, expired) surface as shed, not errors.
func (s SharPerSystem) NewOpenIssuer() OpenLoopIssuer {
	c := s.newClient()
	return func(ops []types.Op) (time.Duration, bool, error) {
		_, lat, err := c.Transfer(ops)
		switch err {
		case core.ErrOverloaded, core.ErrExpired:
			return lat, true, nil
		}
		return lat, false, err
	}
}

// Stop tears the deployment down.
func (s SharPerSystem) Stop() { s.D.Stop() }

// AHLSystem adapts an AHL deployment to the harness.
type AHLSystem struct{ D *ahl.Deployment }

// NewIssuer returns a closed-loop AHL client.
func (s AHLSystem) NewIssuer() Issuer {
	c := s.D.NewClient()
	return func(ops []types.Op) (time.Duration, error) {
		_, lat, err := c.Transfer(ops)
		return lat, err
	}
}

// Stop tears the deployment down.
func (s AHLSystem) Stop() { s.D.Stop() }

// ReplicaSystem adapts an unsharded baseline (APR-C/APR-B/FPaxos/FaB).
type ReplicaSystem struct{ D *replica.Deployment }

// NewIssuer returns a closed-loop baseline client.
func (s ReplicaSystem) NewIssuer() Issuer {
	c := s.D.NewClient()
	return func(ops []types.Op) (time.Duration, error) {
		_, lat, err := c.Transfer(ops)
		return lat, err
	}
}

// Stop tears the deployment down.
func (s ReplicaSystem) Stop() { s.D.Stop() }
