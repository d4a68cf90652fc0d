package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"slices"

	"repro/drange"
	"repro/internal/nist"
)

const (
	// digestBytes is how much of a stream the determinism and stack checks
	// hash.
	digestBytes = 64 << 10
	// nistBits is how much of each served tier the NIST battery tests.
	nistBits = 20000
	// nistAlpha is the battery's significance level. It evaluates about 190
	// p-values (148 of them templates), so at the customary 1e-4 a healthy
	// stream would fail about 2% of runs; 1e-6, the level of drange's
	// startup self-test, keeps false failures negligible while stuck or
	// biased output still fails with p-values near zero.
	nistAlpha = 1e-6
)

// checkStreams verifies, before anything is measured, that the workload's
// inputs are the intended devices and that its Source serves correct,
// reproducible bytes:
//   - every profile is in the fleet's device class;
//   - the measured Source and a second open of the same profiles serve the
//     same first digestBytes;
//   - the NIST battery passes on nistBits of every tier the workload reads;
//   - the harvest stack the layer probes build (stack) serves the same
//     first digestBytes as drange.Open with the workload's shard count, so
//     the probed layers are the program that serves the reads.
func checkStreams(ctx context.Context, cfg config, profiles []*drange.Profile, src drange.Source, rep *report) error {
	w := cfg.w
	if c := cfg.class; c != nil {
		for _, p := range profiles {
			var yield []int
			for _, s := range p.Selections {
				yield = append(yield, s.Bits())
			}
			st, err := newStack(p)
			if err != nil {
				return err
			}
			v, err := st.vulnerableCells()
			if err != nil {
				return err
			}
			rep.check(slices.Equal(yield, c.yield) && v >= c.vulnerable[0] && v <= c.vulnerable[1],
				"serial %d selects per-bank yields %v with %d failure-prone cells, outside the fleet's %v with %d-%d",
				p.Serial, yield, v, c.yield, c.vulnerable[0], c.vulnerable[1])
		}
	}

	first := make([]byte, digestBytes)
	if _, err := src.Read(first); err != nil {
		return fmt.Errorf("reading the first %d bytes: %w", digestBytes, err)
	}
	again, err := w.open(ctx, profiles)
	if err != nil {
		return err
	}
	defer again.Close()
	second := make([]byte, digestBytes)
	if _, err := again.Read(second); err != nil {
		return fmt.Errorf("reading the first %d bytes of a second open: %w", digestBytes, err)
	}
	rep.check(sha256.Sum256(first) == sha256.Sum256(second), "two opens of the same profiles served different first %d bytes", digestBytes)

	// Every cycle starts with a Read, whose tier the second open's stream
	// is; a DRBG workload that also reads raw gets its raw tier tested too.
	tiers := map[string][]byte{}
	if !w.drbg {
		tiers["raw"] = second[:nistBits/8]
	} else {
		tiers["drbg"] = second[:nistBits/8]
		if w.readsRaw() {
			rawBytes := make([]byte, nistBits/8)
			if _, err := again.ReadRaw(rawBytes); err != nil {
				return fmt.Errorf("reading the raw tier: %w", err)
			}
			tiers["raw"] = rawBytes
		}
	}
	for tier, b := range tiers {
		res, err := nist.RunAll(unpack(b), nistAlpha)
		if err != nil {
			return fmt.Errorf("NIST battery on the %s tier: %w", tier, err)
		}
		for _, r := range res.Results {
			rep.check(!r.Applicable || r.Pass, "NIST %s fails on the %s tier (p=%.3g)", r.Name, tier, r.PValue)
		}
	}

	st, err := newStack(profiles[0])
	if err != nil {
		return err
	}
	eng, err := st.engine(ctx, w.shards)
	if err != nil {
		return err
	}
	built := make([]byte, digestBytes)
	err = eng.ReadPacked(built)
	eng.Close()
	if err != nil {
		return fmt.Errorf("reading the bench-built stack: %w", err)
	}
	ref, err := drange.Open(ctx, profiles[0], drange.WithShards(w.shards))
	if err != nil {
		return err
	}
	defer ref.Close()
	served := make([]byte, digestBytes)
	if _, err := ref.Read(served); err != nil {
		return fmt.Errorf("reading drange.Open: %w", err)
	}
	rep.check(sha256.Sum256(built) == sha256.Sum256(served), "the bench-built harvest stack and drange.Open(profile, WithShards(%d)) serve different first %d bytes", w.shards, digestBytes)
	return nil
}

// unpack expands MSB-first packed bytes to one bit per byte.
func unpack(p []byte) []byte {
	out := make([]byte, 0, len(p)*8)
	for _, b := range p {
		for i := 7; i >= 0; i-- {
			out = append(out, b>>uint(i)&1)
		}
	}
	return out
}
