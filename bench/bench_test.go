package main

import (
	"context"
	"regexp"
	"testing"
	"time"
)

// TestWorkloadsReportEveryMetric smoke-runs every workload briefly, traced,
// on a small profiling region, and checks its report against
// BENCHMARK.json: every listed metric is present with the listed unit, no
// unlisted metric is reported, every name is well formed, and the checks
// pass.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			if !valid.MatchString(w.name) {
				t.Errorf("workload name %q is malformed", w.name)
			}
			rep, err := run(context.Background(), config{
				w:       w,
				seed:    201,
				warmup:  100 * time.Millisecond,
				measure: time.Second,
				probe:   100 * time.Millisecond,
				trace:   true,
				region:  region{rows: 16, words: 4, banks: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range rep.failedChecks {
				t.Errorf("check failed: %s", c)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("attempted %d reads, %d failed", rep.attempted, rep.failed)
			}
			for _, set := range []struct {
				got  map[string]metric
				want []specMetric
			}{{rep.endToEnd, sp.EndToEnd}, {rep.layers, sp.PerLayer}} {
				listed := map[string]bool{}
				for _, m := range set.want {
					listed[m.Name] = true
					got, ok := set.got[m.Name]
					if !ok {
						t.Errorf("metric %s is not reported", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				for name := range set.got {
					if !listed[name] {
						t.Errorf("metric %s is reported but not listed in BENCHMARK.json", name)
					}
					if !valid.MatchString(name) {
						t.Errorf("metric name %q is malformed", name)
					}
				}
			}
			for _, name := range []string{"attribution.unattributed_frac", "trace.overhead_frac"} {
				if _, ok := rep.layers[name]; !ok {
					t.Errorf("attribution field %s is missing", name)
				}
			}
		})
	}
}
