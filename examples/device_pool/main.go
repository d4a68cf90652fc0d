// Example device_pool multiplexes a fleet of DRAM devices behind one Source
// with drange.OpenPool, and demonstrates the health tests that keep a fleet
// honest: one member is opened through the "faulty" backend (every column
// stuck — the bias failure the paper's RNG-cell selection guards against),
// its startup self-test trips, and the pool evicts it before it serves a
// byte while reads continue uninterrupted from the healthy devices.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/drange"
)

func main() {
	ctx := context.Background()

	// Characterize a small fleet: one profile per device. In a real
	// deployment these are produced once per chip and persisted.
	var profiles []*drange.Profile
	for serial := uint64(1); serial <= 4; serial++ {
		p, err := drange.Characterize(ctx,
			drange.WithManufacturer("A"),
			drange.WithSerial(serial),
			drange.WithDeterministic(true),
			drange.WithProfilingRegion(64, 8, 4),
		)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("device %d: %d RNG cells, %d bits/iteration\n",
			serial, len(p.Cells), p.BitsPerIteration())
		profiles = append(profiles, p)
	}

	// Open the pool. Device 2 goes through the fault-injecting backend; each
	// member's monitor judges a 1024-bit bias window, and the startup
	// self-test screens every member before the pool serves a byte.
	pool, err := drange.OpenPool(ctx, profiles,
		drange.WithShards(2), // 2 harvesting shards per device
		drange.WithDeviceBackend(2, "faulty", map[string]string{"stuck": "1"}),
		drange.WithHealthTests(drange.HealthTestPolicy{BiasWindowBits: 1024}),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer pool.Close()

	// Read through the eviction: the pool's Read never fails while healthy
	// devices remain.
	buf := make([]byte, 4096)
	if _, err := pool.Read(buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nread %d bytes; first 16: %x\n", len(buf), buf[:16])

	st := pool.Stats()
	fmt.Printf("aggregate: %.1f Mb/s simulated, %d/%d devices healthy\n\n",
		st.AggregateThroughputMbps, pool.Healthy(), pool.Devices())
	for _, d := range st.Devices {
		state := "healthy"
		if d.Evicted {
			state = "EVICTED: " + d.Reason
		}
		fmt.Printf("  device %d (serial %d, backend %-6s): %6d bits delivered, %.1f Mb/s, bias %.3f — %s\n",
			d.Device, d.Serial, d.Backend, d.BitsDelivered, d.ThroughputMbps, d.Health.BiasDelta, state)
	}
}
