// Parallel stream: harvest random data with the concurrent sharded engine.
// Opening a profile with WithShards(4) partitions the bank selections across
// four simulated channel controllers, each harvesting on its own goroutine
// into a bounded packed-bit ring — the paper's bank/channel parallelism as a
// thread-safe io.Reader behind the same Source interface as the default
// 1-shard Source. Concurrent consumers read from the same Source, and the per-shard
// accounting shows the measured multi-bank scaling.
package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"log"
	"sync"

	"repro/drange"
)

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	profile, err := drange.Characterize(ctx,
		drange.WithManufacturer("A"),
		drange.WithSerial(42),
	)
	if err != nil {
		log.Fatalf("parallel_stream: %v", err)
	}
	fmt.Printf("identified %d RNG cells across %d banks\n", len(profile.Cells), profile.Banks())

	// Four shards: four independent channel controllers over disjoint bank
	// subsets. Cancelling the context (or calling Close) stops the harvest.
	src, err := drange.Open(ctx, profile, drange.WithShards(4))
	if err != nil {
		log.Fatalf("parallel_stream: %v", err)
	}
	defer src.Close()
	fmt.Printf("engine running with %d shards\n", src.(*drange.Generator).Shards())

	// The Source is safe for concurrent use: several consumers share it.
	var wg sync.WaitGroup
	streams := make([][]byte, 4)
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 256)
			if _, err := src.Read(buf); err != nil {
				log.Printf("parallel_stream: consumer %d: %v", i, err)
				return
			}
			streams[i] = buf
		}(i)
	}
	wg.Wait()
	for i, s := range streams {
		if len(s) >= 16 {
			fmt.Printf("consumer %d, first 16 bytes: %s\n", i, hex.EncodeToString(s[:16]))
		}
	}

	st := src.Stats()
	fmt.Println("\nshard banks bits_harvested sim_us Mb/s latency64_ns")
	for _, ss := range st.Shards {
		fmt.Printf("%5d %5d %14d %6.1f %6.1f %12.0f\n",
			ss.Shard, ss.Banks, ss.BitsHarvested, ss.SimNS/1000, ss.ThroughputMbps, ss.Latency64NS)
	}
	fmt.Printf("aggregate: %.1f Mb/s simulated, %.0f ns per 64-bit value\n",
		st.AggregateThroughputMbps, st.Latency64NS)
}
