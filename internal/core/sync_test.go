package core

import (
	"testing"
	"time"

	"sharper/internal/types"
)

// TestSyncVotesBoundedAgainstFarIndices: a Byzantine peer naming ever
// farther chain indices in its sync responses must not grow the receiver's
// vote state. Only indices an honest response can reach, within one batch
// of the head, are recorded.
func TestSyncVotesBoundedAgainstFarIndices(t *testing.T) {
	d, err := testDeployment(t, Config{Model: types.Byzantine, Clusters: 1, F: 1, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	members := d.Topo.Members(0)
	n, liar := d.Node(members[0]), members[1]
	signer, err := d.Keyring.SignerFor(liar)
	if err != nil {
		t.Fatal(err)
	}
	block := &types.Block{Parents: []types.Hash{types.HashBytes([]byte("forged parent"))}}
	for i := 0; i < 10_000; i++ {
		resp := &types.SyncResponse{From: uint64(n.view.Len()) + 1 + uint64(i)*7, Blocks: []*types.Block{block}}
		payload := resp.Encode(nil)
		n.onSyncResponse(&types.Envelope{Type: types.MsgSyncResponse, From: liar,
			Payload: payload, Sig: signer.Sign(payload)}, time.Now())
	}
	if got := len(n.syncVotes); got > maxSyncBatch {
		t.Fatalf("%d indices hold sync votes after 10^4 far responses, bound %d", got, maxSyncBatch)
	}
	if got := len(n.syncBlocks); got > maxSyncBatch {
		t.Fatalf("%d indices hold sync blocks, bound %d", got, maxSyncBatch)
	}
}
