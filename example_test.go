package sharper_test

import (
	"fmt"
	"log"

	"sharper"
)

// Example runs a minimal 3-cluster crash-fault-tolerant deployment and
// commits one intra-shard and one cross-shard transfer.
func Example() {
	net, err := sharper.New(sharper.WithMatrix(nil, sharper.Options{
		Model:            sharper.CrashOnly,
		Clusters:         3,
		F:                1,
		AccountsPerShard: 4,
		InitialBalance:   100,
		Seed:             1,
	}))
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()

	client := net.NewClient()

	res, err := client.Transfer(net.AccountInShard(0, 0), net.AccountInShard(0, 1), 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("intra-shard committed:", res.Committed, "cross-shard:", res.CrossShard)

	res, err = client.Transfer(net.AccountInShard(0, 0), net.AccountInShard(2, 0), 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cross-shard committed:", res.Committed, "cross-shard:", res.CrossShard)

	// Output:
	// intra-shard committed: true cross-shard: false
	// cross-shard committed: true cross-shard: true
}
