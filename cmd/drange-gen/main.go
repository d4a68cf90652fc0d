// Command drange-gen generates random bytes from simulated DRAM devices
// using D-RaNGe and writes them to stdout (hex) or a file (raw).
//
// Characterization is a one-time-per-device step: run it once and save the
// device profile with -profile-out, then start generating in milliseconds on
// later runs with -profile-in.
//
// Example:
//
//	drange-gen -bytes 64
//	drange-gen -bytes 1048576 -out random.bin -manufacturer B
//	drange-gen -bytes 4096 -parallel 4   # sharded engine, 4 channel controllers
//	drange-gen -profile-out device.json -bytes 32   # characterize once, save
//	drange-gen -profile-in device.json -bytes 4096  # reopen without re-profiling
//	drange-gen -bytes 4096 -devices 4 -json         # 4-device pool, JSON stats
//	drange-gen -bytes 1048576 -tier drbg            # DRBG tier: 90B-screened seeds, 90A expansion
//
// Device backends (-backend, -backend-opt key=value) select how the device
// is opened: the default "sim" simulator, "replay" for operation-log
// record/replay (byte-reproducible CI runs), or "faulty" for fault
// injection:
//
//	drange-gen -profile-in p.json -bytes 64 -out a.bin \
//	    -backend replay -backend-opt mode=record -backend-opt path=ops.jsonl
//	drange-gen -profile-in p.json -bytes 64 -out b.bin \
//	    -backend replay -backend-opt mode=replay -backend-opt path=ops.jsonl
//	# a.bin and b.bin are byte-identical
package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/drange"
)

// backendOpts collects repeated -backend-opt key=value flags.
type backendOpts map[string]string

func (b backendOpts) String() string {
	parts := make([]string, 0, len(b))
	for k, v := range b {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ",")
}

func (b backendOpts) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("want key=value, got %q", s)
	}
	b[k] = v
	return nil
}

// jsonReport is the machine-readable output emitted by -json.
type jsonReport struct {
	Bytes    int          `json:"bytes"`
	Hex      string       `json:"hex,omitempty"`
	Devices  int          `json:"devices"`
	Backend  string       `json:"backend"`
	Tier     string       `json:"tier"`
	Profiles []uint64     `json:"profile_serials"`
	Stats    drange.Stats `json:"stats"`
}

func main() {
	bopts := backendOpts{}
	var (
		manufacturer  = flag.String("manufacturer", "A", "DRAM manufacturer profile: A, B or C")
		serial        = flag.Uint64("serial", 1, "simulated device serial number")
		nBytes        = flag.Int("bytes", 32, "number of random bytes to generate")
		out           = flag.String("out", "", "write raw bytes to this file instead of hex to stdout")
		deterministic = flag.Bool("deterministic", false, "use a seeded noise source (reproducible output, NOT for keys)")
		parallel      = flag.Int("parallel", 0, "harvest with a sharded engine using this many parallel controllers per device, clamped to the bank count (0 selects 1)")
		devices       = flag.Int("devices", 1, "open a multi-device pool of this many devices (serials serial..serial+N-1, characterized individually), with the default online health tests evicting a member that trips them")
		backend       = flag.String("backend", "", "device backend: sim (default), replay, faulty, or a registered name")
		tier          = flag.String("tier", "raw", "serving tier: raw (physical harvested bits) or drbg (ChaCha20 DRBG reseeded from the health-screened harvest; implies the online health tests)")
		jsonOut       = flag.Bool("json", false, "print a JSON report (bytes as hex unless -out, plus aggregate and per-device/per-shard stats) to stdout")
		profileIn     = flag.String("profile-in", "", "open this saved device profile instead of re-running characterization")
		profileOut    = flag.String("profile-out", "", "write the device profile (JSON) to this file after characterization")
	)
	flag.Var(bopts, "backend-opt", "backend option key=value (repeatable), e.g. -backend-opt mode=record -backend-opt path=ops.jsonl")
	flag.Parse()

	if *nBytes <= 0 {
		fmt.Fprintln(os.Stderr, "drange-gen: -bytes must be positive")
		os.Exit(2)
	}
	if *parallel < 0 {
		fmt.Fprintln(os.Stderr, "drange-gen: -parallel must be non-negative")
		os.Exit(2)
	}
	if *devices < 1 {
		fmt.Fprintln(os.Stderr, "drange-gen: -devices must be at least 1")
		os.Exit(2)
	}
	if *devices > 1 && *profileIn != "" {
		fmt.Fprintln(os.Stderr, "drange-gen: -devices opens one device per serial and characterizes each; it cannot combine with -profile-in (a profile is per-device)")
		os.Exit(2)
	}
	if *devices > 1 && *profileOut != "" {
		fmt.Fprintln(os.Stderr, "drange-gen: -profile-out writes a single per-device profile; it cannot combine with -devices (save each device's profile in its own run)")
		os.Exit(2)
	}
	if *tier != "raw" && *tier != "drbg" {
		fmt.Fprintln(os.Stderr, "drange-gen: -tier must be raw or drbg")
		os.Exit(2)
	}
	if *backend == "replay" && *profileIn == "" {
		// Characterize and Open each open their own device, so one log path
		// cannot record both phases: Open's recorder would truncate the
		// characterization ops and a replay of the same command line would
		// diverge. Record/replay generation runs against a saved profile.
		fmt.Fprintln(os.Stderr, "drange-gen: -backend replay requires -profile-in (record or replay a generation run against a saved profile)")
		os.Exit(2)
	}

	// Track which identity flags were set explicitly, so loading a profile
	// for a different device still errors loudly on a mismatch while plain
	// `-profile-in file` works without repeating the identity flags.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	ctx := context.Background()
	var backendOpt []drange.Option
	if *backend != "" {
		backendOpt = append(backendOpt, drange.WithBackend(*backend, bopts))
	} else if len(bopts) > 0 {
		fmt.Fprintln(os.Stderr, "drange-gen: -backend-opt requires -backend")
		os.Exit(2)
	}

	var profiles []*drange.Profile
	if *profileIn != "" {
		data, err := os.ReadFile(*profileIn)
		if err != nil {
			fatal(err)
		}
		profile, err := drange.DecodeProfile(data)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "drange-gen: loaded profile %s (manufacturer %s, serial %d, %d RNG cells, %d banks)\n",
			*profileIn, profile.Manufacturer, profile.Serial, len(profile.Cells), profile.Banks())
		profiles = []*drange.Profile{profile}
	} else {
		for i := 0; i < *devices; i++ {
			// Characterization runs against the same backend the generator
			// will use (e.g. a faulty backend is characterized as-is).
			profile, err := drange.Characterize(ctx, append([]drange.Option{
				drange.WithManufacturer(*manufacturer),
				drange.WithSerial(*serial + uint64(i)),
				drange.WithDeterministic(*deterministic),
			}, backendOpt...)...)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "drange-gen: device %d (serial %d): identified %d RNG cells across %d banks\n",
				i, *serial+uint64(i), len(profile.Cells), profile.Banks())
			profiles = append(profiles, profile)
		}
	}
	if *profileOut != "" {
		f, err := os.OpenFile(*profileOut, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
		if err != nil {
			fatal(err)
		}
		if err := profiles[0].Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "drange-gen: wrote profile to %s\n", *profileOut)
	}

	opts := append([]drange.Option{}, backendOpt...)
	if *profileIn != "" {
		// Explicit identity flags cross-check the loaded profile. The
		// deterministic flag is checked here because Open treats
		// WithDeterministic as an override, not an identity.
		if explicit["manufacturer"] {
			opts = append(opts, drange.WithManufacturer(*manufacturer))
		}
		if explicit["serial"] {
			opts = append(opts, drange.WithSerial(*serial))
		}
		if explicit["deterministic"] && *deterministic != profiles[0].Characterization.Deterministic {
			fatal(fmt.Errorf("profile %s was characterized with deterministic=%v, not %v",
				*profileIn, profiles[0].Characterization.Deterministic, *deterministic))
		}
	}

	opts = append(opts, drange.WithShards(*parallel))
	if *tier == "drbg" {
		opts = append(opts, drange.WithDRBG(drange.DRBGPolicy{}))
	}
	var src drange.Source
	var err error
	if *devices > 1 {
		// A pool member that drifts (bias, temperature) or sticks is evicted
		// by the health tests, and the survivors keep serving.
		opts = append(opts, drange.WithHealthTests(drange.HealthTestPolicy{}))
		src, err = drange.OpenPool(ctx, profiles, opts...)
	} else {
		src, err = drange.Open(ctx, profiles[0], opts...)
	}
	if err != nil {
		fatal(err)
	}
	defer src.Close()

	buf := make([]byte, *nBytes)
	if _, err := src.Read(buf); err != nil {
		fatal(err)
	}
	st := src.Stats()
	if *parallel > 0 || *devices > 1 {
		fmt.Fprintf(os.Stderr, "drange-gen: %d devices, %d shards, aggregate %.1f Mb/s simulated (64-bit latency %.0f ns)\n",
			*devices, len(st.Shards), st.AggregateThroughputMbps, st.Latency64NS)
	}
	if st.DRBG != nil {
		fmt.Fprintf(os.Stderr, "drange-gen: drbg tier (%s): %d generates, %d reseeds, credit %+d bits (%d credited, %d debited)\n",
			st.DRBG.Algorithm, st.DRBG.Generates, st.DRBG.Reseeds,
			st.DRBG.Credit.BalanceBits, st.DRBG.Credit.CreditedBits, st.DRBG.Credit.DebitedBits)
	}
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o600); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "drange-gen: wrote %d bytes to %s\n", len(buf), *out)
	}
	switch {
	case *jsonOut:
		rep := jsonReport{
			Bytes:   len(buf),
			Devices: *devices,
			Backend: *backend,
			Tier:    *tier,
			Stats:   st,
		}
		if rep.Backend == "" {
			rep.Backend = "sim"
		}
		if *out == "" {
			rep.Hex = hex.EncodeToString(buf)
		}
		for _, p := range profiles {
			rep.Profiles = append(rep.Profiles, p.Serial)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	case *out == "":
		fmt.Println(hex.EncodeToString(buf))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "drange-gen: %v\n", err)
	os.Exit(1)
}
