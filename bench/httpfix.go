package main

import (
	"context"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/adaptive"
)

// loopback serves a handler over h2c on 127.0.0.1, the way adaptived and
// archived expose theirs.
type loopback struct {
	URL  string
	hs   *http.Server
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{URL: "http://" + ln.Addr().String(), hs: adaptive.NewH2CServer("", h), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // always http.ErrServerClosed after close
	}()
	return l, nil
}

// close stops the listener and waits for Serve to return.
func (l *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		l.hs.Close()
	}
	<-l.done
}

// connPool is one h2c connection per core: load comes from this single
// process over at most nproc connections, each multiplexing its clients.
type connPool []*http.Client

func newConnPool() connPool {
	pool := make(connPool, runtime.GOMAXPROCS(0))
	for i := range pool {
		pool[i] = &http.Client{Transport: adaptive.NewH2CTransport()}
	}
	return pool
}

func (p connPool) close() {
	for _, c := range p {
		c.CloseIdleConnections()
	}
}

// timingHandler is the tracing middleware on the http.Handler the servers
// already expose: one span per request, server side. It is mounted only in a
// traced run and records only while a tracer is attached, so the untraced
// half of a traced run pays one atomic load.
type timingHandler struct {
	next http.Handler
	name string
	tr   atomic.Pointer[tracer]
}

func (t *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.tr.Load()
	if tr == nil {
		t.next.ServeHTTP(w, r)
		return
	}
	id := tr.begin(t.name, -1, -1) // the wire carries no op id to join on
	t.next.ServeHTTP(w, r)
	tr.end(id)
}
