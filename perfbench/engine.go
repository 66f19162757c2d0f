package main

import (
	"fmt"
	"runtime"
	"time"

	"streamgraph/internal/core"
)

// runLSBenchEngine is the lsbench-engine workload: a closed loop of
// single-query engines run one after another over the LSBench stream
// (the shape of the paper's Figure 9), every query on StrategyAuto so
// ξ picks its strategy, fed through ProcessBatch with the default
// BatchWorkers. The engine does all the work; router, wire and disk
// none.
func runLSBenchEngine(o runOpts) (*runResult, error) {
	in := makeLSBench(o.seed, o.sz)
	if len(in.queries) == 0 {
		return nil, fmt.Errorf("no queries drawn")
	}
	res := newResult()
	res.streamEdges = len(in.edges)
	cfg := core.Config{Strategy: core.StrategyAuto, Window: in.window, Stats: in.stats}

	// The oracle: an edge-at-a-time engine per query. Its time counts
	// only toward core.serial_edges_per_s.
	want := map[string]digest{}
	var oracleTime time.Duration
	for _, nq := range in.queries {
		eng, err := core.New(nq.q, cfg)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", nq.name, err)
		}
		var d digest
		t0 := time.Now()
		for _, se := range in.edges {
			for _, mt := range eng.ProcessEdge(se) {
				d.add(hashEngineMatch(nq.name, eng.Graph(), mt))
			}
		}
		oracleTime += time.Since(t0)
		want[nq.name] = d
	}

	var setup, state []float64
	var lags []batchLags
	walls := make([][]float64, len(in.queries)) // per query, per pass
	var calls durations
	var plan time.Duration
	var st core.Stats
	start := time.Now()
	for res.passes == 0 || time.Since(start).Seconds() < o.seconds {
		p, err := lsbenchPass(in, cfg, o, res, want)
		if err != nil {
			return nil, err
		}
		res.passes++
		for i, w := range p.walls {
			walls[i] = append(walls[i], w.Seconds())
		}
		setup = append(setup, p.setup.Seconds())
		state = append(state, p.stateMiB)
		lags = append(lags, p.lags)
		// Per-layer figures come from the last pass.
		calls, plan, st = p.calls, p.setup, p.stats
	}
	res.measuredS = time.Since(start).Seconds()

	m := res.metrics
	// Each query's wall time is its median over the passes, so a burst
	// of outside load during one query's run does not move the sum.
	var wall float64
	for _, w := range walls {
		wall += median(w)
	}
	m["edges_per_s"] = float64(len(in.edges)) / wall
	res.cost = wall / float64(len(in.edges))
	nb := (len(in.edges) + o.sz.batch - 1) / o.sz.batch
	all, halves := medianLags(lags, func(k int) int { return boolInt((k%nb)*o.sz.batch >= len(in.edges)/2) })
	m["match_lag_p50_ms"] = all.pct(0.50)
	m["match_lag_p95_ms"] = all.pct(0.95)
	m["match_lag_p99_ms"] = all.pct(0.99)
	halfLags(m, halves)
	m["setup_s"] = median(setup)
	m["state_mib"] = median(state)

	m["core.batch_busy_s"] = calls.sum()
	m["core.batch_call_p99_ms"] = calls.pct(0.99)
	m["core.plan_ms"] = ms(plan)
	m["core.serial_edges_per_s"] = float64(len(in.edges)) / oracleTime.Seconds()
	engineStats(m, st)
	res.notef("lsbench-engine: %d edges, %d queries, window %d, %d passes", len(in.edges), len(in.queries), in.window, res.passes)
	return res, nil
}

// engineStats reports a summed core.Stats as the engine's per-layer
// counters.
func engineStats(m map[string]float64, st core.Stats) {
	m["iso.leaf_searches"] = float64(st.LeafSearches)
	m["iso.leaf_matches"] = float64(st.LeafMatches)
	m["iso.useful_ratio"] = ratio(float64(st.LeafMatches), float64(st.LeafSearches))
	m["iso.steps"] = float64(st.IsoSteps)
	m["iso.retro_searches"] = float64(st.RetroSearches)
	m["sjtree.inserted"] = float64(st.Tree.Inserted)
	m["sjtree.joins_attempted"] = float64(st.Tree.JoinsAttempted)
	m["sjtree.join_hit_ratio"] = ratio(float64(st.Tree.JoinsSucceeded), float64(st.Tree.JoinsAttempted))
	m["sjtree.deduped"] = float64(st.Tree.Deduped)
	m["sjtree.peak_stored"] = float64(st.Tree.PeakStored)
	m["sjtree.evicted"] = float64(st.Tree.Evicted)
	m["sjtree.shed"] = float64(st.Tree.Shed)
	m["graph.evicted"] = float64(st.GraphEvicted)
}

// addStats sums b into a (PeakStored sums the per-query peaks).
func addStats(a *core.Stats, b core.Stats) {
	a.EdgesProcessed += b.EdgesProcessed
	a.LeafSearches += b.LeafSearches
	a.LeafMatches += b.LeafMatches
	a.RetroSearches += b.RetroSearches
	a.RetroMatches += b.RetroMatches
	a.CompleteMatches += b.CompleteMatches
	a.IsoSteps += b.IsoSteps
	a.GraphEvicted += b.GraphEvicted
	t, u := &a.Tree, b.Tree
	t.Inserted += u.Inserted
	t.Deduped += u.Deduped
	t.JoinsAttempted += u.JoinsAttempted
	t.JoinsSucceeded += u.JoinsSucceeded
	t.Emitted += u.Emitted
	t.Stored += u.Stored
	t.PeakStored += u.PeakStored
	t.Evicted += u.Evicted
	t.Shed += u.Shed
	t.ExpireScanned += u.ExpireScanned
}

// enginePassResult is one pass of every query over the stream.
type enginePassResult struct {
	setup    time.Duration   // Σ core.New
	walls    []time.Duration // per query: first ProcessBatch call to last match returned
	calls    durations       // every ProcessBatch call
	lags     batchLags       // per (query, batch): call start to return, once per edge that matched
	stateMiB float64         // Σ per query: live heap at end of stream minus before core.New
	stats    core.Stats
}

func lsbenchPass(in lsbenchInputs, cfg core.Config, o runOpts, res *runResult, want map[string]digest) (*enginePassResult, error) {
	p := &enginePassResult{}
	tr := o.tr
	for _, nq := range in.queries {
		sp := tr.begin(trackProducer, "bench", "measure", 0, 0)
		heap0 := liveHeap()
		tr.end(sp)
		sp = tr.begin(trackProducer, "engine", "core.New", 0, 0)
		t0 := time.Now()
		eng, err := core.New(nq.q, cfg)
		p.setup += time.Since(t0)
		tr.end(sp)
		res.attempted++
		if err != nil {
			res.failed++
			return nil, fmt.Errorf("core.New %s: %w", nq.name, err)
		}
		var d digest
		tw := time.Now()
		for lo := 0; lo < len(in.edges); lo += o.sz.batch {
			hi := min(lo+o.sz.batch, len(in.edges))
			batchID := tr.newBatch()
			root := tr.begin(trackProducer, "bench", "batch", 0, batchID)
			cs := tr.begin(trackProducer, "engine", "core.ProcessBatch", root, batchID)
			tc := time.Now()
			out := eng.ProcessBatch(in.edges[lo:hi])
			te := time.Now()
			tr.end(cs)
			res.attempted += int64(hi - lo)
			call := te.Sub(tc)
			p.calls.add(call)
			var lag []time.Duration
			for _, row := range out {
				if len(row) > 0 {
					lag = append(lag, call)
				}
				for _, mt := range row {
					d.add(hashEngineMatch(nq.name, eng.Graph(), mt))
				}
			}
			p.lags = append(p.lags, lag)
			tr.end(root)
		}
		p.walls = append(p.walls, time.Since(tw))
		st := eng.Stats()
		addStats(&p.stats, st)
		if st.Tree.Shed > 0 {
			res.failed += st.Tree.Shed
		}
		sp = tr.begin(trackProducer, "bench", "measure", 0, 0)
		p.stateMiB += float64(liveHeap()-heap0) / (1 << 20)
		tr.end(sp)
		runtime.KeepAlive(eng)
		if d != want[nq.name] {
			res.correct = false
			res.notef("DIVERGENCE %s: got %v, oracle %v", nq.name, d, want[nq.name])
		}
	}
	return p, nil
}

// liveHeap returns the live heap in bytes after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
