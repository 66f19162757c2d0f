package main

import (
	"fmt"
	"math/rand"

	"streamgraph/internal/datagen"
	"streamgraph/internal/query"
	"streamgraph/internal/selectivity"
	"streamgraph/internal/stream"
)

// sizes fixes every workload's input size. The benchmark runs at
// defaultSizes; the smoke test shrinks them.
type sizes struct {
	// lsbench-engine: LSBench stream length and user count, and the
	// queries drawn per (shape, size) group (3 sizes x 2 shapes).
	lsEdges, lsUsers, lsPerGroup int
	// Netflow host count and the netflow-router stream length.
	nfHosts, nfRouterEdges int
	// netflow-paced offered rates, edges/s, for the first and second
	// half of the run.
	pacedLo, pacedHi int
	// Window tW of both netflow workloads, in stream time units (the
	// netflow generator stamps one unit per edge).
	nfWindow int64
	// netflow-paced control cadence: one migration every migrateEvery
	// edges.
	migrateEvery int
	// Closed-loop ingest batch, in edges.
	batch int
}

var defaultSizes = sizes{
	lsEdges: 100000, lsUsers: 5000, lsPerGroup: 3,
	nfHosts: 20000, nfRouterEdges: 200000,
	pacedLo: 7500, pacedHi: 15000,
	nfWindow:     1000,
	migrateEvery: 16384,
	batch:        1024,
}

var tinySizes = sizes{
	lsEdges: 6000, lsUsers: 500, lsPerGroup: 1,
	nfHosts: 2000, nfRouterEdges: 8000,
	pacedLo: 3000, pacedHi: 6000,
	nfWindow:     1000,
	migrateEvery: 1500,
	batch:        256,
}

// trainFraction of each stream feeds the statistics collector that
// every decomposition is planned from — the paper's "initial set of
// edges" (Section 5.1), the same fraction RunSweep uses.
const trainFraction = 0.2

func train(edges []stream.Edge) *selectivity.Collector {
	c := selectivity.NewCollector()
	c.AddAll(edges[:int(float64(len(edges))*trainFraction)])
	return c
}

// namedQuery is one standing query.
type namedQuery struct {
	name string
	q    *query.Graph
}

// lsbenchInputs is the lsbench-engine job: the stream, its training
// statistics, the window and the query set.
type lsbenchInputs struct {
	edges   []stream.Edge
	stats   *selectivity.Collector
	window  int64
	queries []namedQuery
}

// lsbenchQuerySeed fixes the query draw, so that every seed runs the
// same query set and the seed varies only the stream.
const lsbenchQuerySeed = 1

// makeLSBench generates the social stream and draws schema path and
// tree queries of 3-5 edges from the selective half of a random pool —
// RunSweep's rule: a pool of 6x the group size, filtered at the pool's
// median expected selectivity, then sampled across the remaining
// selectivity range. The draw runs on the stream of lsbenchQuerySeed.
func makeLSBench(seed int64, sz sizes) lsbenchInputs {
	gen := func(seed int64) []stream.Edge {
		return datagen.LSBench(datagen.LSBenchConfig{Seed: seed, Edges: sz.lsEdges, Users: sz.lsUsers})
	}
	edges := gen(seed)
	in := lsbenchInputs{edges: edges, stats: train(edges)}
	in.window = (edges[len(edges)-1].TS-edges[0].TS)/32 + 1
	drawStats := in.stats
	if seed != lsbenchQuerySeed {
		drawStats = train(gen(lsbenchQuerySeed))
	}
	rng := rand.New(rand.NewSource(lsbenchQuerySeed))
	schema := datagen.LSBenchSchema()
	for _, size := range []int{3, 4, 5} {
		for _, shape := range []string{"path", "tree"} {
			pool := sz.lsPerGroup * 6
			var qs []*query.Graph
			if shape == "path" {
				qs = datagen.GenerateSchemaPathQueries(rng, schema, size, pool, drawStats)
			} else {
				qs = datagen.GenerateSchemaTreeQueries(rng, schema, size, pool, drawStats)
			}
			qs = datagen.FilterByMaxExpectedSelectivity(qs, drawStats, datagen.MedianExpectedSelectivity(qs, drawStats))
			for i, q := range datagen.SampleByExpectedSelectivity(qs, drawStats, sz.lsPerGroup) {
				in.queries = append(in.queries, namedQuery{fmt.Sprintf("%s%d-%d", shape, size, i), q})
			}
		}
	}
	return in
}

// netflowInputs is the stream and statistics of a netflow workload.
type netflowInputs struct {
	edges []stream.Edge
	stats *selectivity.Collector
}

func makeNetflow(seed int64, n int, sz sizes) netflowInputs {
	edges := datagen.Netflow(datagen.NetflowConfig{Seed: seed, Edges: n, Hosts: sz.nfHosts})
	return netflowInputs{edges: edges, stats: train(edges)}
}

// netflowQueries is the fixed standing query set of both netflow
// workloads: typed 2- and 3-edge paths and trees over IP hosts whose
// match counts span three orders of magnitude. The set leaves out the
// TCP-to-hub shapes whose counts swing several-fold with which
// protocol the seed's busiest hosts prefer, so the matches per edge —
// and with them the router's cost — stay within a factor of two
// across seeds.
func netflowQueries() []namedQuery {
	path := func(types ...string) *query.Graph { return query.NewPath("ip", types...) }
	// tree builds a query over vertices v0..vn from (src, dst, type)
	// triples.
	tree := func(edges ...any) *query.Graph {
		q := &query.Graph{}
		for i := 0; i < len(edges); i += 3 {
			for _, v := range []int{edges[i].(int), edges[i+1].(int)} {
				for len(q.Vertices) <= v {
					q.AddVertex(fmt.Sprintf("v%d", len(q.Vertices)), "ip")
				}
			}
			q.AddEdge(edges[i].(int), edges[i+1].(int), edges[i+2].(string))
		}
		return q
	}
	return []namedQuery{
		{"p-esp-udp", path("ESP", "UDP")},
		{"p-gre-tcp", path("GRE", "TCP")},
		{"p-ipv6-icmp", path("IPv6", "ICMP")},
		{"p-ah-udp-tcp", path("AH", "UDP", "TCP")},
		{"p-icmp-ipv6-udp", path("ICMP", "IPv6", "UDP")},
		{"p-gre-udp-icmp", path("GRE", "UDP", "ICMP")},
		{"t-out-udp-icmp", tree(0, 1, "UDP", 0, 2, "ICMP")},
		{"t-in-icmp-gre", tree(0, 2, "ICMP", 1, 2, "GRE")},
		{"t-in-ipv6-udp", tree(0, 2, "IPv6", 1, 2, "UDP")},
		{"t-in-udp-ah", tree(0, 2, "UDP", 1, 2, "AH")},
		{"t-esp-tcp-icmp", tree(0, 1, "ESP", 1, 2, "TCP", 1, 3, "ICMP")},
		{"t-out-ipv6-icmp-gre", tree(0, 1, "IPv6", 0, 2, "ICMP", 0, 3, "GRE")},
	}
}

// churnQuery is the query the paced workload registers and
// unregisters once per phase.
func churnQuery() *query.Graph { return query.NewPath("ip", "UDP", "ICMP") }
