package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// specMetric is one metric of BENCHMARK.json.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"` // end-to-end metrics only
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// loadRuns reads a file of runs, one JSON record per line, as -out writes
// them.
func loadRuns(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of v, by
// the method of Python's statistics.quantiles(v, n=4) (exclusive).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// compareSets prints, for every workload and metric, each set's quartiles
// and — for end-to-end metrics — whether set B's median is worse than set
// A's by more than the metric's bound. It reports false if any is.
func compareSets(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	sp, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	runsA, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	runsB, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	var names []string
	seen := map[string]bool{}
	for _, r := range append(append([]record(nil), runsA...), runsB...) {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	sort.Strings(names)
	values := func(runs []record, workload, m string) []float64 {
		var v []float64
		for _, r := range runs {
			if x, ok := r.Metrics[m]; ok && r.Workload == workload {
				v = append(v, x.Value)
			}
		}
		return v
	}

	ok := true
	fmt.Fprintf(w, "%-15s %-32s %-11s %-33s %-33s %8s %6s %s\n", "workload", "metric", "unit", "A q1/median/q3 (n)", "B q1/median/q3 (n)", "worse", "bound", "verdict")
	for _, wl := range names {
		for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
			a, b := values(runsA, wl, m.Name), values(runsB, wl, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			a1, am, a3 := quartiles(a)
			b1, bm, b3 := quartiles(b)
			worse := (bm - am) / math.Abs(am)
			if m.Better == "higher" {
				worse = -worse
			}
			bound, verdict := "-", ""
			if m.Bound != nil {
				bound = fmt.Sprintf("%.2f", *m.Bound)
				verdict = "within"
				if !(worse <= *m.Bound) {
					verdict, ok = "WORSE", false
				}
			}
			fmt.Fprintf(w, "%-15s %-32s %-11s %-33s %-33s %+8.3f %6s %s\n", wl, m.Name, m.Unit,
				fmt.Sprintf("%.4g/%.4g/%.4g (%d)", a1, am, a3, len(a)),
				fmt.Sprintf("%.4g/%.4g/%.4g (%d)", b1, bm, b3, len(b)),
				worse, bound, verdict)
		}
	}
	return ok, nil
}
