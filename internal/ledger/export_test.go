package ledger

import "sharper/internal/types"

// stored returns a copy of block i's stored encoding and the hash the view
// chained it with.
func (v *View) stored(i int) ([]byte, types.Hash) {
	slabs, locs, hashes := v.snapshot()
	return append([]byte(nil), encoding(slabs, locs[i])...), hashes[i]
}

// storedLen returns the length of block i's stored encoding.
func (v *View) storedLen(i int) int {
	_, locs, _ := v.snapshot()
	return int(locs[i].n)
}

// flipStoredByte inverts byte k of block i's stored encoding in place: the
// corruption a Verify must notice.
func (v *View) flipStoredByte(i, k int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	encoding(v.slabs, v.locs[i])[k] ^= 0xff
}
