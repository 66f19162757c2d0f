package main

import (
	"fmt"
	"sort"

	"streamgraph/internal/core"
	"streamgraph/internal/graph"
	"streamgraph/internal/iso"
	"streamgraph/internal/shard"
)

// digest is an order-independent fingerprint of a match multiset: the
// count plus two wrapping sums of per-match hashes. Equal multisets
// always give equal digests; the two independent sums make an
// accidental collision of different multisets negligible.
type digest struct {
	N        int64
	Sum, Mix uint64
}

func (d *digest) add(h uint64) {
	d.N++
	d.Sum += h
	d.Mix += splitmix(h)
}

func (d digest) String() string { return fmt.Sprintf("%d/%016x%016x", d.N, d.Sum, d.Mix) }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// matchHasher hashes the canonical form of one match: the query name,
// then per query edge (in query-edge order) the bound data edge's
// source, destination, type and timestamp. Every execution path
// resolves to this same form, so one digest compares them all.
type matchHasher struct{ h uint64 }

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func newHasher(queryName string) matchHasher {
	m := matchHasher{h: fnvOffset}
	m.str(queryName)
	return m
}

func (m *matchHasher) str(s string) {
	h := m.h
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h ^= 0xff // terminator, so "ab"+"c" differs from "a"+"bc"
	h *= fnvPrime
	m.h = h
}

func (m *matchHasher) int(v int64) {
	h := m.h
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(v >> (8 * i)))
		h *= fnvPrime
	}
	m.h = h
}

func (m *matchHasher) edge(qe int, src, dst, typ string, ts int64) {
	m.int(int64(qe))
	m.str(src)
	m.str(dst)
	m.str(typ)
	m.int(ts)
}

// hashEngineMatch hashes a match of a single-query engine, resolving
// its edges against the engine's graph. Call it before the next
// ProcessBatch: the graph may evict the bound edges afterwards.
func hashEngineMatch(name string, g *graph.Graph, mt iso.Match) uint64 {
	h := newHasher(name)
	for qe, eid := range mt.EdgeOf {
		de, ok := g.Edge(eid)
		if !ok {
			continue // as core.MultiEngine.ResolveMatch does
		}
		h.edge(qe, g.VertexName(de.Src), g.VertexName(de.Dst), g.Types().Name(uint32(de.Type)), de.TS)
	}
	return h.h
}

// hashMultiMatch hashes a serial MultiEngine match.
func hashMultiMatch(m *core.MultiEngine, nm core.NamedMatch) uint64 {
	return hashEngineMatch(nm.Query, m.Graph(), nm.Match)
}

// hashRouterMatch hashes a match delivered by the shard router.
func hashRouterMatch(mt shard.Match) uint64 {
	h := newHasher(mt.Query)
	edges := mt.Edges
	if !sort.SliceIsSorted(edges, func(i, j int) bool { return edges[i].QueryEdge < edges[j].QueryEdge }) {
		edges = append([]shard.MatchEdge(nil), edges...)
		sort.Slice(edges, func(i, j int) bool { return edges[i].QueryEdge < edges[j].QueryEdge })
	}
	for _, e := range edges {
		h.edge(e.QueryEdge, e.Src, e.Dst, e.Type, e.TS)
	}
	return h.h
}
