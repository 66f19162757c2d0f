package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare reads.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics: no verdict
}

// compareMain implements `perfbench compare [-bench file] OLD NEW`: OLD
// and NEW are result sets, each a JSONL file written with -record (or
// a directory of them). Per (workload, metric) it prints each side's
// median and quartiles, the share of seed-paired runs NEW won, and a
// verdict from the bounds in BENCHMARK.json.
func compareMain(args []string, root string, stdout, stderr io.Writer) int {
	bench := filepath.Join(root, "BENCHMARK.json")
	if len(args) >= 2 && args[0] == "-bench" {
		bench, args = args[1], args[2:]
	}
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] OLD NEW")
		return 2
	}
	spec, err := readSpec(bench)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 1
	}
	old, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 1
	}
	neu, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 1
	}
	rows := compareSets(spec, old, neu)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "compare: the two sets share no (workload, metric)")
		return 1
	}
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3] (n)\tnew median [q1, q3] (n)\tchange\tnew won\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n",
			r.workload, r.metric, r.unit, sideString(r.old), sideString(r.neu), 100*r.change, 100*r.won, r.verdict)
	}
	tw.Flush()
	return 0
}

func sideString(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", med, q1, q3, len(xs))
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// readRecords loads a result set: one JSONL file, or every *.jsonl
// file of a directory.
func readRecords(path string) ([]record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.jsonl"))
		if err != nil {
			return nil, err
		}
	}
	var out []record
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(fh)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		for sc.Scan() {
			var r record
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				fh.Close()
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			out = append(out, r)
		}
		err = sc.Err()
		fh.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// compareRow is one (workload, metric) of the comparison.
type compareRow struct {
	workload, metric, unit string
	old, neu               []float64 // in seed order
	change                 float64   // relative median change, positive = worse
	won                    float64   // share of pairs the new side won
	verdict                string
}

// compareSets builds the rows: end-to-end metrics from untraced runs
// with a verdict, per-layer metrics from traced runs for information.
func compareSets(spec benchSpec, old, neu []record) []compareRow {
	var rows []compareRow
	for _, w := range workloadsIn(old, neu) {
		for _, group := range []struct {
			trace int
			defs  []specMetric
		}{{0, spec.EndToEnd}, {1, spec.PerLayer}} {
			a, b := runsOf(old, w, group.trace), runsOf(neu, w, group.trace)
			for _, d := range group.defs {
				xa, xb := pick(a, d.Name), pick(b, d.Name)
				if len(xa.vals) == 0 || len(xb.vals) == 0 {
					continue
				}
				row := compareRow{workload: w, metric: d.Name, unit: d.Unit, old: xa.vals, neu: xb.vals}
				row.change, row.won, row.verdict = judge(d, xa, xb)
				rows = append(rows, row)
			}
		}
	}
	return rows
}

func workloadsIn(a, b []record) []string {
	seen := map[string]int{}
	for _, r := range a {
		seen[r.Workload] |= 1
	}
	for _, r := range b {
		seen[r.Workload] |= 2
	}
	var out []string
	for w, m := range seen {
		if m == 3 {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}

// seedValues holds one metric's values of one side with their seeds.
type seedValues struct {
	seeds []int64
	vals  []float64
}

// runsOf returns a workload's runs at one trace setting, sorted by
// seed.
func runsOf(rs []record, workload string, trace int) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == workload && r.Trace == trace {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out
}

func pick(rs []record, metric string) seedValues {
	var sv seedValues
	for _, r := range rs {
		if m, ok := r.Result.Metrics[metric]; ok && !math.IsNaN(m.Value) {
			sv.seeds = append(sv.seeds, r.Seed)
			sv.vals = append(sv.vals, m.Value)
		}
	}
	return sv
}

// judge returns the relative median change (positive = worse), the
// share of pairs the new side won, and the verdict:
//
//   - unresolved: either side's spread (IQR over median) exceeds the
//     bound, so a change cannot be told from noise — unless every new
//     run beats every old run, which is improved;
//   - worse: the median got worse by more than the metric's bound;
//   - improved: the new side won at least 90% of the pairs and its
//     median beats the old one by more than the old side's own spread
//     (interquartile distance);
//   - unchanged: otherwise.
//
// Per-layer metrics have no bound and get "info".
func judge(d specMetric, a, b seedValues) (change, won float64, verdict string) {
	lower := d.Better == "lower"
	worseBy := func(x, y float64) float64 { // how much worse y is than x
		if x == 0 {
			return 0
		}
		if lower {
			return (y - x) / math.Abs(x)
		}
		return (x - y) / math.Abs(x)
	}
	beats := func(y, x float64) bool { // y better than x
		if lower {
			return y < x
		}
		return y > x
	}
	qa1, ma, qa3 := quartiles(a.vals)
	qb1, mb, qb3 := quartiles(b.vals)
	change = worseBy(ma, mb)
	won = pairWins(a, b, beats)
	if d.Bound == 0 {
		return change, won, "info"
	}
	spreadA, spreadB := math.Abs(qa3-qa1)/math.Abs(ma), math.Abs(qb3-qb1)/math.Abs(mb)
	if spreadA > d.Bound || spreadB > d.Bound {
		if dominates(b.vals, a.vals, beats) {
			return change, won, "improved"
		}
		return change, won, "unresolved"
	}
	if change > d.Bound {
		return change, won, "worse"
	}
	if won >= 0.9 && beats(mb, ma) && math.Abs(mb-ma) > math.Abs(qa3-qa1) {
		return change, won, "improved"
	}
	return change, won, "unchanged"
}

// pairWins pairs runs by seed (by position where the seeds differ) and
// returns the share of pairs the new side won; ties count for neither.
func pairWins(a, b seedValues, beats func(y, x float64) bool) float64 {
	bySeed := map[int64]float64{}
	for i, s := range a.seeds {
		bySeed[s] = a.vals[i]
	}
	var pairs, wins int
	for i, s := range b.seeds {
		x, ok := bySeed[s]
		if !ok {
			if i >= len(a.vals) {
				continue
			}
			x = a.vals[i]
		}
		pairs++
		if beats(b.vals[i], x) {
			wins++
		}
	}
	return ratio(float64(wins), float64(pairs))
}

// dominates reports whether every value of ys beats every value of xs.
func dominates(ys, xs []float64, beats func(y, x float64) bool) bool {
	for _, y := range ys {
		for _, x := range xs {
			if !beats(y, x) {
				return false
			}
		}
	}
	return len(ys) > 0 && len(xs) > 0
}
