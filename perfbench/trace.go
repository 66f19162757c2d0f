package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Tracks: the goroutines a span can run on. A span's children are on
// its own track; spans of different tracks overlap in wall time
// without one causing the other.
const (
	trackProducer = "producer" // the single load-driving goroutine
	trackRemote   = "remote"   // the in-process dshard host's connection
)

// span is one timed call into a layer, recorded from the benchmark's
// own code around a public function of the program.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: a root span
	Track  string `json:"track"`
	Layer  string `json:"layer"` // bench, engine, shard, dshard, durable
	Name   string `json:"name"`
	Batch  int64  `json:"batch"` // ingested batch id; 0 outside a batch
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a nil *tracer records nothing, so the
// untraced runs pay one nil check per call site.
type tracer struct {
	base    time.Time
	mu      sync.Mutex
	spans   []span
	batches int64
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(track, layer, name string, parent int32, batch int64) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Track: track, Layer: layer, Name: name, Batch: batch, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// newBatch returns the next ingested-batch id (0 when tracing is off).
// It is called from the producer goroutine only.
func (t *tracer) newBatch() int64 {
	if t == nil {
		return 0
	}
	t.batches++
	return t.batches
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.base))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceSummary is what the per-layer report takes from the spans.
type traceSummary struct {
	selfS     map[string]float64 // layer -> self time, seconds
	uncovered float64            // share of the producer's streaming window no program-layer, sleep or measure span covers
	spans     int
}

// summarize computes per-layer self time — a span's duration minus the
// part of it its children cover — and the share of the producer's
// streaming window that no span covers except the benchmark's own
// batch roots: the benchmark's per-batch bookkeeping.
func (t *tracer) summarize() traceSummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sum := traceSummary{selfS: map[string]float64{}, spans: len(spans)}
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			spans[i].End = s.Start // unterminated: count nothing
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for _, s := range spans {
		var ivs [][2]int64
		for _, c := range children[s.ID] {
			ivs = append(ivs, [2]int64{spans[c].Start, spans[c].End})
		}
		self := (s.End - s.Start) - covered(ivs, s.Start, s.End)
		sum.selfS[s.Layer] += float64(self) / 1e9
	}
	// The producer's streaming window: first batch start to last batch
	// end. Inside it, program-layer spans, the generator's sleeps and
	// the benchmark's heap measurements count as covered.
	var lo, hi int64 = -1, -1
	var work [][2]int64
	for _, s := range spans {
		if s.Track != trackProducer {
			continue
		}
		if s.Layer == "bench" && s.Name == "batch" {
			if lo < 0 || s.Start < lo {
				lo = s.Start
			}
			hi = max(hi, s.End)
		}
		if s.Layer != "bench" || s.Name == "sleep" || s.Name == "measure" {
			work = append(work, [2]int64{s.Start, s.End})
		}
	}
	if hi > lo {
		sum.uncovered = 1 - float64(covered(work, lo, hi))/float64(hi-lo)
	}
	return sum
}

// covered returns the length of the union of intervals ivs clipped to
// [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curS, curE int64
	open := false
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// spanFile names the span dump of one traced run.
func spanFile(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", dir, workload, seed)
}
