package main

import (
	"net"
	"sync/atomic"
	"time"
)

// meteredListener wraps the listener handed to dshard.Server.Serve and
// times the remote slot host's connection from outside: the time it
// spends between returning from one Read and calling the next (handling
// what it read, its writes included) and the time inside Write.
type meteredListener struct {
	net.Listener
	m *connMeter
}

type connMeter struct {
	tr                *tracer
	handleNs, writeNs atomic.Int64
}

func (l meteredListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: c, m: l.m}, nil
}

// meteredConn is used by one host goroutine at a time for reads and
// writes (the dshard host serves a connection from one goroutine), so
// its own fields need no synchronisation.
type meteredConn struct {
	net.Conn
	m          *connMeter
	readReturn time.Time // zero before the first Read returns
	span       int32     // the open host.handle span
}

func (c *meteredConn) Read(p []byte) (int, error) {
	if !c.readReturn.IsZero() {
		c.m.handleNs.Add(int64(time.Since(c.readReturn)))
		c.m.tr.end(c.span)
	}
	n, err := c.Conn.Read(p)
	c.readReturn = time.Now()
	c.span = c.m.tr.begin(trackRemote, "dshard", "host.handle", 0, 0)
	return n, err
}

func (c *meteredConn) Write(p []byte) (int, error) {
	sp := c.m.tr.begin(trackRemote, "dshard", "conn.Write", c.span, 0)
	t := time.Now()
	n, err := c.Conn.Write(p)
	c.m.writeNs.Add(int64(time.Since(t)))
	c.m.tr.end(sp)
	return n, err
}
