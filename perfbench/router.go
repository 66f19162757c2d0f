package main

import (
	"fmt"
	"runtime"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/metrics"
	"streamgraph/internal/shard"
)

// runNetflowRouter is the netflow-router workload: a closed loop at
// saturation through an in-process shard.Router with one local slot
// per core and the standing netflow queries on StrategyAuto. One
// producer calls IngestBatch back to back; one goroutine drains. The
// shard data path carries a large share of the work; speculative
// search (Register forces BatchWorkers=1), dshard and durable are idle.
func runNetflowRouter(o runOpts) (*runResult, error) {
	in := makeNetflow(o.seed, o.sz.nfRouterEdges, o.sz)
	queries := netflowQueries()
	res := newResult()
	res.streamEdges = len(in.edges)

	want, oracleTime, err := multiOracle(in, queries, o.sz.nfWindow, nil)
	if err != nil {
		return nil, err
	}

	var eps, setup, state []float64
	var lags []batchLags
	var last *routerPass
	start := time.Now()
	for res.passes == 0 || time.Since(start).Seconds() < o.seconds {
		p, err := routerPassRun(in, queries, o, res)
		if err != nil {
			return nil, err
		}
		res.passes++
		for _, bad := range p.digs.diff(want) {
			res.correct = false
			res.notef("DIVERGENCE pass %d: %s", res.passes, bad)
		}
		lags = append(lags, p.lags)
		eps = append(eps, float64(len(in.edges))/p.wall.Seconds())
		setup = append(setup, p.setup.Seconds())
		state = append(state, p.stateMiB)
		last = p
	}
	res.measuredS = time.Since(start).Seconds()

	m := res.metrics
	m["edges_per_s"] = median(eps)
	res.cost = 1 / m["edges_per_s"]
	all, halves := medianLags(lags, func(k int) int { return boolInt(k*o.sz.batch >= len(in.edges)/2) })
	m["match_lag_p50_ms"] = all.pct(0.50)
	m["match_lag_p95_ms"] = all.pct(0.95)
	m["match_lag_p99_ms"] = all.pct(0.99)
	m["setup_s"] = median(setup)
	m["state_mib"] = median(state)
	halfLags(m, halves)

	m["core.serial_edges_per_s"] = float64(len(in.edges)) / oracleTime.Seconds()
	m["shard.ingest_busy_s"] = last.ingest.sum()
	m["shard.ingest_call_p99_ms"] = last.ingest.pct(0.99)
	m["shard.drain_tail_ms"] = ms(last.drainTail)
	m["shard.register_ms"] = ms(last.register)
	routerCounters(m, last.snap, last.stats, len(in.edges))
	res.notef("netflow-router: %d edges, %d queries, %d local slots, window %d, %d passes, %d matches",
		len(in.edges), len(queries), runtime.GOMAXPROCS(0), o.sz.nfWindow, res.passes, want.total().N)
	return res, nil
}

// routerQueueLen bounds each slot's queue, in batches, so that the
// closed loop's backlog — and with it match lag — is set by
// backpressure rather than by the stream's length.
const routerQueueLen = 8

// halfLags reports the lag quantiles of each half: a closed loop's
// first and second half of the stream, the paced lo and hi phases.
func halfLags(m map[string]float64, lag [2]durations) {
	for h, sfx := range []string{"lo", "hi"} {
		m["match_lag_p50_ms."+sfx] = lag[h].pct(0.50)
		m["match_lag_p99_ms."+sfx] = lag[h].pct(0.99)
	}
}

// multiOracle runs the serial core.MultiEngine over the stream with
// the same queries, statistics and window, edge at a time, and returns
// the digest of its match multiset and the time it took. A non-nil
// control hook runs before each edge (the paced workload's
// register/unregister schedule).
func multiOracle(in netflowInputs, queries []namedQuery, window int64, control func(i int, m *core.MultiEngine, d digests) error) (digests, time.Duration, error) {
	m := core.NewMulti(core.MultiConfig{Window: window})
	for _, nq := range queries {
		if err := m.Register(nq.name, nq.q, core.Config{Strategy: core.StrategyAuto, Stats: in.stats}); err != nil {
			return nil, 0, fmt.Errorf("oracle register %s: %w", nq.name, err)
		}
	}
	d := digests{}
	t0 := time.Now()
	for i, se := range in.edges {
		if control != nil {
			if err := control(i, m, d); err != nil {
				return nil, 0, fmt.Errorf("oracle control at edge %d: %w", i, err)
			}
		}
		for _, nm := range m.ProcessEdge(se) {
			d.add(nm.Query, hashMultiMatch(m, nm))
		}
	}
	// Close flushes pending lazy repairs; so does the oracle.
	for _, nm := range m.FlushPending() {
		d.add(nm.Query, hashMultiMatch(m, nm))
	}
	return d, time.Since(t0), nil
}

// routerPass is one closed-loop pass of the stream through a fresh
// router.
type routerPass struct {
	setup, register, wall, drainTail time.Duration
	ingest                           durations
	lags                             batchLags // per batch: due to first match received, per match event
	stateMiB                         float64
	digs                             digests
	snap                             []metrics.Sample
	stats                            []shard.Stats
}

func routerPassRun(in netflowInputs, queries []namedQuery, o runOpts, res *runResult) (*routerPass, error) {
	p := &routerPass{digs: digests{}}
	tr := o.tr
	edges := in.edges
	b := o.sz.batch
	heap0 := liveHeap()

	t0 := time.Now()
	sp := tr.begin(trackProducer, "shard", "shard.New", 0, 0)
	r := shard.New(shard.Config{Shards: runtime.GOMAXPROCS(0), Window: o.sz.nfWindow, QueueLen: routerQueueLen})
	tr.end(sp)
	// due[k] is when batch k was submitted, in ns since t0; the drain
	// goroutine reads it after the batch's matches arrive, which the
	// router's channels order after the write.
	due := make([]int64, (len(edges)+b-1)/b)
	p.lags = make(batchLags, len(due))
	seen := map[matchEvent]bool{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Drain(func(mt shard.Match) {
			p.digs.add(mt.Query, hashRouterMatch(mt))
			if ev := (matchEvent{mt.Query, mt.Seq}); !seen[ev] {
				seen[ev] = true
				k := mt.Seq / uint64(b)
				p.lags[k] = append(p.lags[k], time.Duration(int64(time.Since(t0))-due[k]))
			}
		})
	}()
	for _, nq := range queries {
		sp := tr.begin(trackProducer, "shard", "shard.Register", 0, 0)
		tc := time.Now()
		err := r.Register(nq.name, nq.q, core.Config{Strategy: core.StrategyAuto, Stats: in.stats})
		p.register += time.Since(tc)
		tr.end(sp)
		res.attempted++
		if err != nil {
			res.failed++
			r.Close()
			<-done
			return nil, fmt.Errorf("register %s: %w", nq.name, err)
		}
	}
	p.setup = time.Since(t0)

	first := time.Now()
	for k := 0; k*b < len(edges); k++ {
		batch := edges[k*b : min((k+1)*b, len(edges))]
		batchID := tr.newBatch()
		root := tr.begin(trackProducer, "bench", "batch", 0, batchID)
		due[k] = int64(time.Since(t0))
		sp := tr.begin(trackProducer, "shard", "shard.IngestBatch", root, batchID)
		tc := time.Now()
		r.IngestBatch(batch)
		p.ingest.add(time.Since(tc))
		tr.end(sp)
		tr.end(root)
		res.attempted += int64(len(batch))
	}
	lastReturn := time.Now()
	sp = tr.begin(trackProducer, "shard", "shard.Close", 0, 0)
	r.Close()
	tr.end(sp)
	<-done
	end := time.Now()
	p.wall = end.Sub(first)
	p.drainTail = end.Sub(lastReturn)
	p.snap = r.Metrics().Snapshot()
	p.stats = r.Stats()
	p.stateMiB = float64(liveHeap()-heap0) / (1 << 20)
	runtime.KeepAlive(r)
	return p, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// routerCounters reports the per-layer counters a router exports
// through Stats() and its metrics registry.
func routerCounters(m map[string]float64, snap []metrics.Sample, stats []shard.Stats, streamEdges int) {
	// Engine internals the shard workers publish (sg_engine_tree_*).
	m["sjtree.inserted"] = seriesSum(snap, "sg_engine_tree_inserted")
	m["sjtree.deduped"] = seriesSum(snap, "sg_engine_tree_deduped")
	m["sjtree.evicted"] = seriesSum(snap, "sg_engine_tree_evicted")

	var busy []float64
	for _, s := range snap {
		if s.Name == "sg_shard_process_batch_ns" && s.Hist != nil && s.Hist.Count() > 0 {
			busy = append(busy, float64(s.Hist.Sum())/1e9)
		}
	}
	var total, peak float64
	for _, b := range busy {
		total += b
		peak = max(peak, b)
	}
	m["shard.slot_busy_s"] = total
	if len(busy) > 0 {
		m["shard.slot_busy_skew"] = ratio(peak, total/float64(len(busy)))
	}
	routed := seriesSum(snap, "sg_shard_edges_routed_total")
	gated := seriesSum(snap, "sg_shard_edges_gated_total")
	m["shard.gate_pass_ratio"] = ratio(routed, routed+gated)
	var stored int64
	for _, s := range stats {
		stored += s.ReplicaStored
	}
	m["shard.replication_x"] = ratio(float64(stored), float64(streamEdges))
	qw := seriesHist(snap, "sg_shard_queue_wait_ns")
	m["shard.queue_wait_p50_ms"] = nsToMs(qw.Quantile(0.50))
	m["shard.queue_wait_p99_ms"] = nsToMs(qw.Quantile(0.99))
}

// seriesSum adds every series named name (counters and gauges).
func seriesSum(snap []metrics.Sample, name string) float64 {
	var v int64
	for _, s := range snap {
		if s.Name == name {
			v += s.Value
		}
	}
	return float64(v)
}

// seriesHist merges every histogram series named name.
func seriesHist(snap []metrics.Sample, name string) metrics.Histogram {
	var h metrics.Histogram
	for _, s := range snap {
		if s.Name == name && s.Hist != nil {
			h.Merge(s.Hist)
		}
	}
	return h
}
