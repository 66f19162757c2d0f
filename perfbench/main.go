// Command perfbench is the repository's benchmark: one program that
// drives the engine, the shard router and the paced durable/remote
// path with seeded workloads, checks every run's matches against the
// serial oracle, and prints end-to-end metrics (untraced) or per-layer
// metrics (traced) as one JSON line. See README.md.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload lsbench-engine --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare old.jsonl new.jsonl
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(o runOpts) (*runResult, error){
	"lsbench-engine": runLSBenchEngine,
	"netflow-router": runNetflowRouter,
	"netflow-paced":  runNetflowPaced,
}

// runOpts is what every workload function receives.
type runOpts struct {
	seed    int64
	seconds float64
	sz      sizes
	tr      *tracer // nil: untraced
	workDir string  // working directory for durable data directories
}

// runResult is one run's outcome.
type runResult struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64 // end-to-end and per-layer, by name
	// cost is the wall time the tracing overhead compares: producer
	// time per stream edge, in seconds.
	cost float64
	// provenance fields specific to the workload.
	streamEdges int
	passes      int
	measuredS   float64
	rates       [2]int
	notes       []string
}

func newResult() *runResult { return &runResult{correct: true, metrics: map[string]float64{}} }

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	workload := flags.String("workload", "", "workload: lsbench-engine, netflow-router or netflow-paced")
	seed := flags.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flags.Float64("seconds", 10, "measured run length")
	trace := flags.Int("trace", 0, "1: also make a traced run and report per-layer metrics")
	root := flags.String("root", ".", "checkout root; build output and temporary files go under <root>/.bench_build")
	record := flags.String("record", "", "append the full result record (with provenance) to this JSONL file")
	scale := flags.String("scale", "default", "input sizes: default, or tiny for the smoke test")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if flags.NArg() > 0 && flags.Arg(0) == "compare" {
		return compareMain(flags.Args()[1:], *root, stdout, stderr)
	}
	drive, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	sz := defaultSizes
	if *scale == "tiny" {
		sz = tinySizes
	} else if *scale != "default" {
		fmt.Fprintf(stderr, "perfbench: unknown scale %q\n", *scale)
		return 2
	}
	workDir := filepath.Join(*root, ".bench_build", "perfbench-work", fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	o := runOpts{seed: *seed, seconds: *seconds, sz: sz, workDir: workDir}
	res, err := drive(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	out := map[string]float64{}
	defs := endToEnd
	if *trace == 1 {
		// The traced run repeats the workload with spans on; its
		// per-layer numbers are reported, and its cost against the
		// untraced run's is the tracing overhead.
		o.tr = newTracer()
		traced, err := drive(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s (traced): %v\n", *workload, err)
			return 1
		}
		sum := o.tr.summarize()
		for _, l := range []string{"bench", "engine", "shard", "dshard", "durable"} {
			traced.metrics["trace.self_s."+l] = sum.selfS[l]
		}
		traced.metrics["trace.uncovered_share"] = sum.uncovered
		traced.metrics["trace.overhead_ratio"] = ratio(traced.cost, res.cost) - 1
		traced.metrics["trace.spans"] = float64(sum.spans)
		spans := spanFile(filepath.Join(*root, ".bench_build"), *workload, *seed)
		if err := o.tr.write(spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		traced.notef("spans written to %s", spans)
		res.correct = res.correct && traced.correct
		res.attempted += traced.attempted
		res.failed += traced.failed
		res.notes = append(res.notes, traced.notes...)
		for k, v := range traced.metrics {
			if strings.HasPrefix(k, "trace.") || unitOf(k) != "" && !isEndToEnd(k) {
				res.metrics[k] = v
			}
		}
		defs = perLayer
	}
	res.metrics["failed_frac"] = ratio(float64(res.failed), float64(res.attempted))
	for _, m := range defs {
		out[m.name] = res.metrics[m.name]
	}

	prov := provenance(*workload, *seed, *seconds, *trace, *root, res)
	for _, n := range res.notes {
		fmt.Fprintln(stdout, "#", n)
	}
	printTable(stdout, *workload, res)
	provJSON, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Fprintln(stdout, string(provJSON))

	final := resultLine(res, defs, out)
	if *record != "" {
		if err := appendRecord(*record, *workload, *seed, *trace, prov, final, res.metrics); err != nil {
			fmt.Fprintf(stderr, "perfbench: record: %v\n", err)
			return 1
		}
	}
	line, _ := json.Marshal(final)
	fmt.Fprintln(stdout, string(line))
	if !res.correct {
		fmt.Fprintf(stderr, "perfbench: %s: matches diverge from the serial oracle\n", *workload)
		return 1
	}
	return 0
}

func isEndToEnd(name string) bool {
	for _, m := range endToEnd {
		if m.name == name {
			return true
		}
	}
	return false
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the run's last stdout line.
type resultLineT struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func resultLine(res *runResult, defs []metricDef, vals map[string]float64) resultLineT {
	line := resultLineT{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		line.Metrics[m.name] = metricValue{Value: vals[m.name], Unit: m.unit}
	}
	return line
}

// printTable prints every metric the run produced, by name with its
// unit, plus failed_frac — the human-readable part of the output.
func printTable(w io.Writer, workload string, res *runResult) {
	fmt.Fprintf(w, "# %s: correct=%v attempted=%d failed=%d\n", workload, res.correct, res.attempted, res.failed)
	names := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "# %-34s %16.6f %s\n", k, res.metrics[k], unitOf(k))
	}
}

// provenance records where and how a result was measured.
func provenance(workload string, seed int64, seconds float64, trace int, root string, res *runResult) map[string]any {
	return map[string]any{
		"workload":       workload,
		"seed":           seed,
		"trace":          trace,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"commit":         readCommit(root),
		"source_sha256":  sourceDigest(root),
		"stream_edges":   res.streamEdges,
		"run_seconds":    seconds,
		"measured_s":     res.measuredS,
		"passes":         res.passes,
		"time_utc":       time.Now().UTC().Format(time.RFC3339),
		"lo_edges_per_s": res.rates[0],
		"hi_edges_per_s": res.rates[1],
	}
}

// readCommit resolves HEAD from a .git directory without running git;
// a checkout that is not a repository records "unknown".
func readCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	name := strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[1] == name {
				return f[0]
			}
		}
	}
	return "unknown"
}

// sourceDigest hashes the checkout's Go sources and module files, so
// results from a checkout without git metadata still name the code they
// measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if name := d.Name(); strings.HasSuffix(name, ".go") || name == "go.mod" {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// record is one line of a result set: everything compare needs.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      int                `json:"trace"`
	Provenance map[string]any     `json:"provenance"`
	Result     resultLineT        `json:"result"`
	All        map[string]float64 `json:"all_metrics"`
}

func appendRecord(path, workload string, seed int64, trace int, prov map[string]any, line resultLineT, all map[string]float64) error {
	b, err := json.Marshal(record{Workload: workload, Seed: seed, Trace: trace, Provenance: prov, Result: line, All: all})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
