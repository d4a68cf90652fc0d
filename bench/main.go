// Command bench is the repository's benchmark. One invocation runs one
// serving workload against the drange facade for a fixed wall-clock budget,
// checks that the served bytes are correct, and prints one JSON object as
// the last line of its standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics BENCHMARK.json lists;
// with -trace 1 they are its per-layer metrics, measured by timing each
// layer's public functions from outside (see README.md). Run it from the
// repository root:
//
//	bash bench/run.sh -workload raw-stream -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -compare setA.jsonl setB.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's caller parses.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as -out stores it: the result, what -compare needs to
// group runs, and the checks that failed.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
	Checks []string `json:"failed_checks,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload to run: raw-stream, drbg-keys, pool-monitored or mixed-tier")
	seed := flag.Int64("seed", 201, "input seed: picks the devices the workload characterizes")
	seconds := flag.Float64("seconds", 10, "measurement length in seconds, split into ten windows")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	out := flag.String("out", "", "append the run as one JSON line to this file (-trace 1 also writes <out>.trace.json)")
	compare := flag.Bool("compare", false, "compare two files of runs written by -out against the bounds in BENCHMARK.json: bench -compare <setA> <setB>")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two run files")
		}
		ok, err := compareSets(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil {
		fatalf("unknown workload %q", *name)
	}
	// One P makes a run measure the CPU cost of the serving path. With two
	// (the default on the 2-vCPU KVM host the benchmark was built on),
	// cross-CPU wake-ups between the engine's shard goroutines and the
	// reader made identical raw-stream runs vary by ±15% and run 30%
	// slower; with one they vary by ±4%.
	runtime.GOMAXPROCS(1)
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	cfg := defaultConfig(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	res := result{Correct: len(rep.failedChecks) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.endToEnd}
	if cfg.trace {
		res.Metrics = rep.layers
	}
	if *out != "" {
		rec := record{Workload: w.name, Seed: *seed, result: res, Checks: rep.failedChecks}
		if err := appendRecord(*out, rec); err != nil {
			fatalf("%v", err)
		}
		if cfg.trace {
			if err := rep.tracer.write(*out + ".trace.json"); err != nil {
				fatalf("%v", err)
			}
		}
	}
	for _, c := range rep.failedChecks {
		fmt.Fprintf(os.Stderr, "check failed: %s\n", c)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding run record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
