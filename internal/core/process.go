package core

import (
	"fmt"
	"time"

	"sharper/internal/ledger"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// NewProcessNode builds replica self of cfg, the one replica a standalone
// process hosts, over fab (normally a tcpnet.Net listening on the address
// the topology names for self). Every process of a deployment is started
// from the same cfg, so all of them derive the same keys from its seed (the
// trusted setup §2.1 assumes) and the replica resolves exactly the
// configuration it would have inside NewDeployment. With cfg.DataDir set
// the replica keeps its storage under NodeDataDir(cfg.DataDir, self) and
// recovers from it on restart-in-place.
func NewProcessNode(cfg Config, self types.NodeID, fab transport.Fabric) (*Node, error) {
	if fab == nil {
		return nil, fmt.Errorf("core: NewProcessNode needs a fabric")
	}
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	keys, err := DeriveKeys(cfg)
	if err != nil {
		return nil, err
	}
	return newReplica(&cfg, self, fab, keys, nil)
}

// FetchView retrieves one cluster's ledger view from a remote replica over
// the chain-sync protocol (MsgSyncRequest/MsgSyncResponse), for audits by a
// driver process that holds no replica state of its own. It pages through
// the peer's chain until a request goes unanswered for `idle` (the peer
// stays silent once the requester has everything — the same convention
// replicas use among themselves). Call it on a quiesced deployment.
func FetchView(fab transport.Fabric, self types.NodeID, inbox <-chan *types.Envelope,
	peer types.NodeID, cluster types.ClusterID, idle time.Duration) (*ledger.View, error) {
	view := ledger.NewView(cluster)
	for {
		req := &types.SyncRequest{From: uint64(view.Len())}
		fab.Send(peer, &types.Envelope{
			Type: types.MsgSyncRequest, From: self, Payload: req.Encode(nil),
		})
		progressed, err := awaitSyncPage(inbox, view, req.From, idle)
		if err != nil {
			return nil, err
		}
		if !progressed {
			return view, nil
		}
	}
}

// awaitSyncPage appends one page of sync blocks to view, reporting whether
// the chain advanced. Unrelated traffic in the inbox is skipped.
func awaitSyncPage(inbox <-chan *types.Envelope, view *ledger.View, from uint64, idle time.Duration) (bool, error) {
	deadline := time.NewTimer(idle)
	defer deadline.Stop()
	for {
		select {
		case env := <-inbox:
			if env.Type != types.MsgSyncResponse {
				continue
			}
			resp, err := types.DecodeSyncResponse(env.Payload)
			if err != nil {
				continue
			}
			if resp.From != from || len(resp.Blocks) == 0 {
				continue // stale page from an earlier request
			}
			for _, b := range resp.Blocks {
				if err := view.Append(b); err != nil {
					return false, fmt.Errorf("core: sync audit of %s: %w", view.Cluster(), err)
				}
			}
			return true, nil
		case <-deadline.C:
			return false, nil
		}
	}
}
