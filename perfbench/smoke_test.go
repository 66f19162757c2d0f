package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// The benchmark's own tests: run them with `go test ./...` from the
// perfbench directory.

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	var spec struct {
		Command   []string                `json:"command"`
		Paths     []string                `json:"paths"`
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []specMetric            `json:"end_to_end"`
		PerLayer  []specMetric            `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload of the program", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the program has %d", names, len(workloads))
	}
	setup := false
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
}

// TestTinyWorkloads runs every workload at tiny size, untraced and
// traced, and requires the serial-oracle gate to pass and the result
// line to carry exactly the catalogue's metrics.
func TestTinyWorkloads(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"-root", t.TempDir(), "-workload", w, "-seed", "3", "-seconds", "1", "-scale", "tiny", "-trace", trace}, &out, &errb)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line resultLineT
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", line.Correct, line.Attempted, line.Failed, out.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(line.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := line.Metrics[m.name]
					if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s: %+v (present %v)", m.name, v, ok)
					}
					if trace == "0" && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, v.Value)
					}
				}
			})
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) on the same inputs.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 9, 2}, [3]float64{1.25, 3.5, 8}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.5}, [3]float64{2.75, 5.5, 8.25}},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		got := [3]float64{q1, m, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	d := specMetric{Name: "edges_per_s", Better: "higher", Bound: 0.1}
	side := func(vals ...float64) seedValues {
		sv := seedValues{vals: vals}
		for i := range vals {
			sv.seeds = append(sv.seeds, int64(i+1))
		}
		return sv
	}
	base := side(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	cases := []struct {
		name string
		neu  seedValues
		want string
	}{
		{"same", side(100, 100, 101, 99, 100, 101, 99, 100, 102, 98), "unchanged"},
		{"faster", side(110, 111, 109, 110, 112, 108, 110, 111, 109, 110), "improved"},
		{"slower", side(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "worse"},
		{"noisy", side(60, 140, 70, 130, 100, 65, 135, 100, 90, 110), "unresolved"},
	}
	for _, c := range cases {
		if _, _, got := judge(d, base, c.neu); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if _, _, got := judge(specMetric{Name: "x", Better: "lower"}, base, base); got != "info" {
		t.Errorf("per-layer verdict %s, want info", got)
	}
}
