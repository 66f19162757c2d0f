package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"streamgraph/internal/core"
	"streamgraph/internal/dshard"
	"streamgraph/internal/shard"
)

// pacedTick is the generator's period: every tick it sends, as one
// IngestBatch, whatever the schedule has made due since the last one.
const pacedTick = time.Millisecond

// pacedSetups is how many times the paced workload builds its system in
// one run; setup_s is the median. The last build runs the stream.
const pacedSetups = 4

// runNetflowPaced is the netflow-paced workload: an open loop on the
// netflow stream and queries through a durable router (shard.Open on a
// fresh directory, default checkpoint cadence) with one local slot and
// one remote slot served in-process by a dshard.Server on loopback.
// The run is a series of cycles, each offering the lo rate for half a
// cycle and then the hi rate (see newSchedule); meanwhile queries
// migrate between the slots at a fixed cadence and each phase
// registers (with backfill) and unregisters one extra query. After
// Close the data directory is re-opened and timed.
func runNetflowPaced(o runOpts) (*runResult, error) {
	sc := newSchedule(o.sz.pacedLo, o.sz.pacedHi, o.seconds, o.sz.migrateEvery)
	n := len(sc.due)
	in := makeNetflow(o.seed, n, o.sz)
	queries := netflowQueries()
	res := newResult()
	res.streamEdges = n
	res.rates = [2]int{sc.lo, sc.hi}
	res.passes = sc.cycles
	ctl := sc.ctl

	// The oracle mirrors the churn schedule. Unregister is preceded by
	// a flush of pending lazy repairs, as the router's unregister
	// barrier does; migrations do not change the serial schedule.
	cqCfg := core.Config{Strategy: core.StrategyAuto, Stats: in.stats}
	next := 0
	want, oracleTime, err := multiOracle(in, queries, o.sz.nfWindow, func(i int, m *core.MultiEngine, d digests) error {
		for ; next < len(ctl) && ctl[next].at == i; next++ {
			c := ctl[next]
			switch c.kind {
			case ctlRegister:
				if err := m.Register(c.name, churnQuery(), cqCfg); err != nil {
					return err
				}
			case ctlUnregister:
				for _, nm := range m.FlushPending() {
					d.add(nm.Query, hashMultiMatch(m, nm))
				}
				m.Unregister(c.name)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Set-up, repeated: every build but the last is torn down at once.
	var setups []float64
	var sys *pacedSystem
	heap0 := liveHeap()
	for i := 0; i < pacedSetups; i++ {
		dir, err := os.MkdirTemp(o.workDir, "paced-data-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		s, err := startPaced(o, dir, in, queries, res)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if i == pacedSetups-1 {
			sys = s
			break
		}
		s.close()
		s.stopServer()
	}
	defer sys.stopServer()

	p := sys.stream(in, &sc, o, res)
	stateMiB := float64(liveHeap()-heap0) / (1 << 20)
	sp := o.tr.begin(trackProducer, "shard", "shard.Close", 0, 0)
	sys.close()
	o.tr.end(sp)
	snap := sys.r.Metrics().Snapshot()
	logStats := sys.r.LogStats()
	routerStats := sys.r.Stats()
	if bad := sys.digs.diff(want); len(bad) > 0 {
		res.correct = false
		for _, b := range bad {
			res.notef("DIVERGENCE %s", b)
		}
	}

	// Recovery: re-open the directory the run left behind.
	sp = o.tr.begin(trackProducer, "durable", "shard.Open(recover)", 0, 0)
	t0 := time.Now()
	r2, _, err := shard.Open(sys.cfg)
	recover := time.Since(t0)
	o.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("re-open: %w", err)
	}
	done := make(chan struct{})
	go func() { defer close(done); r2.Drain(nil) }()
	r2.Close()
	<-done

	// Lag and lateness are pooled over the whole run, each phase with
	// its kind. The tail is the checkpoint and migration stalls, only a
	// few per cycle, so a quantile taken per cycle would move with how
	// many of them each cycle happened to hold.
	var all, late durations
	var halves [2]durations
	for ph, d := range sys.lag { // the Drain goroutine has ended
		all = append(all, d...)
		halves[ph%2] = append(halves[ph%2], d...)
		if ph%2 == 1 {
			late = append(late, p.late[ph]...)
		}
	}
	m := res.metrics
	m["edges_per_s"] = float64(n) / p.wall.Seconds()
	m["match_lag_p50_ms"] = all.pct(0.50)
	m["match_lag_p95_ms"] = all.pct(0.95)
	m["match_lag_p99_ms"] = all.pct(0.99)
	m["setup_s"] = median(setups)
	m["state_mib"] = stateMiB
	halfLags(m, halves)
	m["gen_late_p99_ms.hi"] = late.pct(0.99)
	m["recover_s"] = recover.Seconds()
	res.cost = p.busy.Seconds() / float64(n)
	res.measuredS = p.wall.Seconds()

	m["core.serial_edges_per_s"] = float64(n) / oracleTime.Seconds()
	m["shard.ingest_busy_s"] = p.ingest.sum()
	m["shard.ingest_call_p99_ms"] = p.ingest.pct(0.99)
	m["shard.register_ms"] = ms(sys.register)
	m["shard.open_ms"] = ms(sys.open)
	m["shard.migrate_call_p50_ms"] = p.migrate.pct(0.50)
	m["shard.migrate_call_max_ms"] = p.migrate.max()
	routerCounters(m, snap, routerStats, n)
	ck := seriesHist(snap, "sg_checkpoint_round_ns")
	m["shard.checkpoint_round_p50_ms"] = nsToMs(ck.Quantile(0.50))
	m["shard.checkpoint_round_p99_ms"] = nsToMs(ck.Quantile(0.99))
	m["shard.checkpoint_rounds"] = seriesSum(snap, "sg_checkpoint_rounds_total")
	m["shard.migration_backfill_edges"] = seriesSum(snap, "sg_migration_backfill_edges_total")
	m["shard.migrations_failed"] = seriesSum(snap, "sg_migrations_failed_total")
	rtt := seriesHist(snap, "sg_dshard_ack_rtt_ns")
	m["dshard.ack_rtt_p50_ms"] = nsToMs(rtt.Quantile(0.50))
	m["dshard.ack_rtt_p99_ms"] = nsToMs(rtt.Quantile(0.99))
	sent := seriesSum(snap, "sg_dshard_bytes_in_total") + seriesSum(snap, "sg_dshard_bytes_out_total")
	raw := seriesSum(snap, "sg_dshard_raw_bytes_in_total") + seriesSum(snap, "sg_dshard_raw_bytes_out_total")
	m["dshard.sent_mib"] = sent / (1 << 20)
	m["dshard.raw_mib"] = raw / (1 << 20)
	m["dshard.sent_raw_ratio"] = ratio(sent, raw)
	m["dshard.edges_per_frame"] = ratio(float64(routerStats[1].EdgesRouted), seriesSum(snap, "sg_dshard_frames_out_total"))
	m["dshard.conn_read_busy_s"] = float64(sys.meter.handleNs.Load()) / 1e9
	m["dshard.conn_write_busy_s"] = float64(sys.meter.writeNs.Load()) / 1e9
	m["dshard.reconnects"] = seriesSum(snap, "sg_dshard_connects_total") - 1
	m["dshard.replayed_edges"] = seriesSum(snap, "sg_dshard_replayed_edges_total")
	fs := seriesHist(snap, "sg_edlog_fsync_ns")
	m["edlog.fsync_p50_ms"] = nsToMs(fs.Quantile(0.50))
	m["edlog.fsync_p99_ms"] = nsToMs(fs.Quantile(0.99))
	m["edlog.disk_mib"] = float64(logStats.DiskBytes) / (1 << 20)
	m["edlog.segments"] = float64(logStats.Segments)
	res.notef("netflow-paced: %d edges in %d cycles of lo %d/s then hi %d/s, %d queries, window %d, %d migrations, %d matches",
		n, sc.cycles, sc.lo, sc.hi, len(queries), o.sz.nfWindow, len(p.migrate), want.total().N)
	return res, nil
}

// Control operations of the paced schedule, each run just before the
// edge at index at is sent.
const (
	ctlMigrate = iota
	ctlRegister
	ctlUnregister
)

type control struct {
	at   int
	kind int
	name string
}

// pacedCycle is the nominal length of one cycle of the schedule: half
// of it offered at the lo rate, then half at hi.
const pacedCycle = 2500 * time.Millisecond

// pacedSchedule is the open loop's plan: when each edge is due, and the
// control operations between edges.
type pacedSchedule struct {
	lo, hi   int // offered rates, edges/s
	cycles   int
	nLo, nHi int     // edges per lo / hi phase
	due      []int64 // ns after the schedule's start
	ctl      []control
}

// newSchedule splits the run into cycles of about pacedCycle. Each
// phase of each cycle registers (with backfill) one extra query a third
// of the way in and unregisters it two thirds of the way in; a
// migration runs every migrateEvery edges.
func newSchedule(lo, hi int, seconds float64, migrateEvery int) pacedSchedule {
	sc := pacedSchedule{lo: lo, hi: hi, cycles: max(1, int(math.Round(seconds/pacedCycle.Seconds())))}
	cycleNs := seconds * float64(time.Second) / float64(sc.cycles)
	sc.nLo, sc.nHi = int(float64(lo)*cycleNs/2e9), int(float64(hi)*cycleNs/2e9)
	per := sc.nLo + sc.nHi
	sc.due = make([]int64, sc.cycles*per)
	for i := range sc.due {
		c, w := i/per, i%per
		at := float64(c) * cycleNs
		if w < sc.nLo {
			at += float64(w) * 1e9 / float64(lo)
		} else {
			at += cycleNs/2 + float64(w-sc.nLo)*1e9/float64(hi)
		}
		sc.due[i] = int64(at)
	}
	for c := 0; c < sc.cycles; c++ {
		for h, ph := range []struct{ start, n int }{{c * per, sc.nLo}, {c*per + sc.nLo, sc.nHi}} {
			name := fmt.Sprintf("churn-%d-%s", c, []string{"lo", "hi"}[h])
			sc.ctl = append(sc.ctl,
				control{ph.start + ph.n/3, ctlRegister, name},
				control{ph.start + 2*ph.n/3, ctlUnregister, name})
		}
	}
	for at := migrateEvery; at < len(sc.due); at += migrateEvery {
		sc.ctl = append(sc.ctl, control{at, ctlMigrate, ""})
	}
	sort.SliceStable(sc.ctl, func(i, j int) bool { return sc.ctl[i].at < sc.ctl[j].at })
	return sc
}

// phase returns the lag bucket of edge i: 2*cycle, plus 1 in the hi
// phase.
func (sc *pacedSchedule) phase(i int) int {
	per := sc.nLo + sc.nHi
	return 2*(i/per) + boolInt(i%per >= sc.nLo)
}

// pacedSystem is one build of the paced topology.
type pacedSystem struct {
	cfg      shard.Config
	srv      *dshard.Server
	served   chan struct{}
	meter    *connMeter
	r        *shard.Router
	setup    time.Duration // server start through the last Register
	open     time.Duration
	register time.Duration
	t0       time.Time // the schedule's zero, set when streaming starts
	started  atomic.Bool
	sc       *pacedSchedule
	digs     digests
	lag      []durations // per phase of the schedule, one per match event
	seen     map[matchEvent]bool
	last     atomic.Int64 // ns since t0 of the latest match received
	received atomic.Int64
	closing  atomic.Bool // set before Close: its final flush is not timed
	drained  chan struct{}
	closed   bool
}

// startPaced builds the system: the remote slot's server on loopback,
// the durable router on dir, and every standing query registered.
func startPaced(o runOpts, dir string, in netflowInputs, queries []namedQuery, res *runResult) (*pacedSystem, error) {
	s := &pacedSystem{meter: &connMeter{tr: o.tr}, served: make(chan struct{}), drained: make(chan struct{}), digs: digests{}}
	t0 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.srv = dshard.NewServer()
	go func() {
		defer close(s.served)
		s.srv.Serve(meteredListener{Listener: ln, m: s.meter})
	}()
	s.cfg = shard.Config{Shards: 1, Remotes: []string{ln.Addr().String()}, Window: o.sz.nfWindow, DataDir: dir}
	sp := o.tr.begin(trackProducer, "durable", "shard.Open", 0, 0)
	to := time.Now()
	r, _, err := shard.Open(s.cfg)
	s.open = time.Since(to)
	o.tr.end(sp)
	if err != nil {
		s.stopServer()
		return nil, fmt.Errorf("open: %w", err)
	}
	s.r = r
	go func() {
		defer close(s.drained)
		r.Drain(s.onMatch)
	}()
	for _, nq := range queries {
		sp := o.tr.begin(trackProducer, "shard", "shard.Register", 0, 0)
		tc := time.Now()
		err := r.Register(nq.name, nq.q, core.Config{Strategy: core.StrategyAuto, Stats: in.stats})
		s.register += time.Since(tc)
		o.tr.end(sp)
		res.attempted++
		if err != nil {
			res.failed++
			s.close()
			s.stopServer()
			return nil, fmt.Errorf("register %s: %w", nq.name, err)
		}
	}
	s.setup = time.Since(t0)
	return s, nil
}

// onMatch runs on the Drain goroutine. Matches delivered before the
// stream starts (none: the router is fresh) are ignored; those of
// Close's final flush count toward the digest but not the lag.
func (s *pacedSystem) onMatch(mt shard.Match) {
	if !s.started.Load() {
		return
	}
	s.digs.add(mt.Query, hashRouterMatch(mt))
	if s.closing.Load() {
		return
	}
	now := int64(time.Since(s.t0))
	if ev := (matchEvent{mt.Query, mt.Seq}); !s.seen[ev] {
		s.seen[ev] = true
		s.lag[s.sc.phase(int(mt.Seq))].add(time.Duration(now - s.sc.due[mt.Seq]))
	}
	s.last.Store(now)
	s.received.Add(1)
}

func (s *pacedSystem) close() {
	if s.closed {
		return
	}
	s.closed = true
	s.closing.Store(true)
	s.r.Close()
	<-s.drained
}

func (s *pacedSystem) stopServer() {
	s.srv.Close()
	<-s.served
}

// pacedRun is what streaming the schedule measured.
type pacedRun struct {
	wall    time.Duration // first due time to the last match before quiescence
	busy    time.Duration // producer time inside router calls
	ingest  durations
	migrate durations
	late    []durations // per phase: send time minus due time, per edge
}

// stream offers the schedule, runs the control operations at their
// positions, then waits until the router is quiet.
func (s *pacedSystem) stream(in netflowInputs, sc *pacedSchedule, o runOpts, res *runResult) *pacedRun {
	p := &pacedRun{late: make([]durations, 2*sc.cycles)}
	due, ctl := sc.due, sc.ctl
	tr := o.tr
	edges := in.edges
	names := netflowQueries()
	cqCfg := core.Config{Strategy: core.StrategyAuto, Stats: in.stats}
	s.sc, s.lag, s.seen = sc, make([]durations, 2*sc.cycles), map[matchEvent]bool{}
	s.t0 = time.Now()
	s.started.Store(true)
	sent, next, migrations := 0, 0, 0
	for sent < len(edges) {
		if next < len(ctl) && ctl[next].at == sent {
			c := ctl[next]
			next++
			res.attempted++
			var err error
			tc := time.Now()
			switch c.kind {
			case ctlMigrate:
				name := names[migrations%len(names)].name
				migrations++
				from, _ := s.r.Owner(name)
				sp := tr.begin(trackProducer, "shard", "shard.Migrate", 0, 0)
				err = s.r.Migrate(name, from, 1-from)
				tr.end(sp)
				p.migrate.add(time.Since(tc))
			case ctlRegister:
				sp := tr.begin(trackProducer, "shard", "shard.Register", 0, 0)
				err = s.r.Register(c.name, churnQuery(), cqCfg)
				tr.end(sp)
			case ctlUnregister:
				sp := tr.begin(trackProducer, "shard", "shard.Unregister", 0, 0)
				s.r.Unregister(c.name)
				tr.end(sp)
			}
			p.busy += time.Since(tc)
			if err != nil {
				res.failed++
				res.notef("control %v at %d: %v", c, c.at, err)
			}
			continue
		}
		now := int64(time.Since(s.t0))
		k := sent
		limit := len(edges)
		if next < len(ctl) {
			limit = ctl[next].at
		}
		for k < limit && due[k] <= now {
			k++
		}
		if k == sent {
			// Nothing due: sleep to the next tick. An edge due between
			// ticks waits for the tick; its lag counts the wait.
			wake := (now/int64(pacedTick) + 1) * int64(pacedTick)
			sp := tr.begin(trackProducer, "bench", "sleep", 0, 0)
			time.Sleep(time.Duration(wake - now))
			tr.end(sp)
			continue
		}
		batchID := tr.newBatch()
		root := tr.begin(trackProducer, "bench", "batch", 0, batchID)
		for i := sent; i < k; i++ {
			p.late[sc.phase(i)].add(time.Duration(now - due[i]))
		}
		sp := tr.begin(trackProducer, "shard", "shard.IngestBatch", root, batchID)
		tc := time.Now()
		s.r.IngestBatch(edges[sent:k])
		call := time.Since(tc)
		tr.end(sp)
		tr.end(root)
		p.ingest.add(call)
		p.busy += call
		res.attempted += int64(k - sent)
		sent = k
	}
	lastSend := time.Since(s.t0)
	// Quiescence: the queues are empty and no match arrived for 50ms.
	for {
		prev := s.received.Load()
		time.Sleep(50 * time.Millisecond)
		idle := s.received.Load() == prev
		for _, st := range s.r.Stats() {
			idle = idle && st.QueueDepth == 0
		}
		if idle {
			break
		}
	}
	p.wall = max(lastSend, time.Duration(s.last.Load()))
	return p
}

// digests holds one digest per query.
type digests map[string]digest

func (d digests) add(query string, h uint64) {
	x := d[query]
	x.add(h)
	d[query] = x
}

func (d digests) total() digest {
	var t digest
	for _, x := range d {
		t.N += x.N
		t.Sum += x.Sum
		t.Mix += x.Mix
	}
	return t
}

// diff lists the queries whose digests differ from want's.
func (d digests) diff(want digests) []string {
	var out []string
	for q, w := range want {
		if d[q] != w {
			out = append(out, fmt.Sprintf("%s: got %v, oracle %v", q, d[q], w))
		}
	}
	for q, g := range d {
		if _, ok := want[q]; !ok {
			out = append(out, fmt.Sprintf("%s: got %v, oracle none", q, g))
		}
	}
	return out
}
