package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"p2b/internal/httpapi"
	"p2b/internal/metrics"
	"p2b/internal/persist"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
)

// faults are deliberate defects a test injects into an in-process
// composition to prove the output checks trip (1-based; 0 = none).
type faults struct {
	skipSinkBatch int64 // a shuffler delivery the sink never sees
	dropReport    int64 // a device report the transport swallows
	threshold     int   // a crowd-blending threshold other than the workload's
}

// composition is a workload's node layout built in-process from the same
// constructors cmd/p2bnode uses, optionally with timing decorators on the
// seams between layers. The ingest side is the combined node or the
// relay; the model side is the combined node or the analyzer.
type composition struct {
	ingestShuf *shuffler.Shuffler
	modelSrv   *server.Server
	fwd        *topology.Forwarder
	mgr        *persist.Manager
	wal        *persist.Metrics // the ingest node's WAL instruments (durable layouts)
	https      []*http.Server
	hooked     bool
}

// walBuckets resolve WAL and checkpoint latencies to ~9%, where the node's
// own duration buckets double per step.
func walBuckets() []float64 { return metrics.ExpBuckets(1e-6, 1.09, 200) }

func walMetrics(reg *metrics.Registry) *persist.Metrics {
	return &persist.Metrics{
		AppendSeconds:     reg.Histogram("p2b_wal_append_seconds", "", "WAL append transaction latency.", walBuckets()),
		FsyncSeconds:      reg.Histogram("p2b_wal_fsync_seconds", "", "WAL fsync latency.", walBuckets()),
		CheckpointSeconds: reg.Histogram("p2b_checkpoint_seconds", "", "Checkpoint capture latency.", walBuckets()),
		Checkpoints:       reg.Counter("p2b_checkpoints_total", "", "Completed checkpoint captures."),
	}
}

// compose builds and serves w's layout on loopback listeners. tr nil
// composes the plain, untraced node.
func compose(w workload, seed uint64, dir string, tr *tracer, fl faults) (*fleet, error) {
	c := &composition{}
	f := &fleet{relay: w.Topo == topoRelay, comp: c}
	adm := func() *httpapi.Admission {
		// cmd/p2bnode's defaults.
		return httpapi.NewAdmission(httpapi.AdmissionConfig{
			MaxInFlight: 256, MaxInFlightBytes: 64 << 20, RetryAfter: time.Second, ReadTimeout: 30 * time.Second,
		})
	}
	newServer := func() *server.Server {
		return server.New(server.Config{K: codeSpace, Arms: arms, D: ctxDim, Alpha: 1, Seed: seed})
	}
	// newShuffler decorates the sink it delivers to unless name is empty.
	newShuffler := func(sink shuffler.Sink, name string) *shuffler.Shuffler {
		if name != "" && (tr != nil || fl.skipSinkBatch > 0) {
			sink = &sinkSpans{t: tr, name: name, next: sink, skip: fl.skipSinkBatch}
		}
		threshold := w.Threshold
		if fl.threshold > 0 {
			threshold = fl.threshold
		}
		return shuffler.New(shuffler.Config{BatchSize: w.Batch, Threshold: threshold}, sink, rng.New(seed).Split("shuffler"))
	}
	ingest := func(ing httpapi.Ingestor) httpapi.Ingestor {
		if tr == nil {
			return ing
		}
		return tracedIngestor{t: tr, next: ing}
	}
	serve := func(name string, h http.Handler) (string, error) {
		if tr != nil {
			h = tr.routeSpans(name, h)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
		c.https = append(c.https, hs)
		go func() { _ = hs.Serve(l) }()
		return "http://" + l.Addr().String(), nil
	}
	if tr != nil {
		persist.SetFSHooks(&persist.FSHooks{
			BeforeWrite: func(_ string, b []byte) (int, error) {
				tr.walBytes.Add(int64(len(b)))
				tr.markWAL()
				return len(b), nil
			},
			BeforeSync: func(string) error { tr.walSyncs.Add(1); return nil },
		})
		c.hooked = true
	}
	policy, err := httpapi.ParseWALPolicy("fail-closed")
	if err != nil {
		return nil, err
	}
	epoch := topology.BootEpoch()

	// The model side: the combined node, or the relay's analyzer.
	srv := newServer()
	c.modelSrv = srv
	reg := metrics.NewRegistry()
	name := "node"
	if w.Topo == topoRelay {
		name = "analyzer"
	}
	opts := httpapi.NodeOptions{
		WALPolicy: policy, Metrics: reg, Admission: adm(), Role: "combined",
		Peer: &httpapi.PeerOptions{Origin: name + "-1", Token: peerToken, Epoch: epoch, Export: srv.ExportState},
	}
	sinkName := "server.deliver"
	if w.Topo == topoRelay {
		// The analyzer's own shuffler sees no traffic.
		opts.Role, sinkName = "analyzer", ""
	}
	shuf := newShuffler(srv, sinkName)
	if w.Topo == topoDurable {
		c.wal = walMetrics(reg)
		c.mgr, err = persist.Open(filepath.Join(dir, "data"), shuf, srv, persist.Options{
			SyncInterval: 0, CheckpointInterval: time.Second, Metrics: c.wal, Logf: func(string, ...any) {},
		})
		if err != nil {
			return nil, errors.Join(err, c.close())
		}
		opts.Ingest = ingest(c.mgr)
		opts.Checkpoint = c.mgr.Checkpoint
		opts.Health = func() any { return c.mgr.Info() }
		opts.Peer.Deliver = c.mgr.DeliverPeer
	} else if tr != nil && w.Topo == topoMemory {
		opts.Ingest = ingest(shufflerIngestor{shuf})
	}
	url, err := serve(name, httpapi.NewNodeHandlerOpts(shuf, srv, opts))
	if err != nil {
		return nil, errors.Join(err, c.close())
	}
	f.ingestURL, f.modelURL = url, url
	c.ingestShuf = shuf
	if w.Topo != topoRelay {
		return f, nil
	}

	// The relay: durable with interval fsync, forwarding to the analyzer.
	client := &http.Client{Timeout: 30 * time.Second}
	if tr != nil {
		client.Transport = forwardHeaders{t: tr, next: http.DefaultTransport}
	}
	c.fwd, err = topology.NewForwarder(url, topology.ForwarderOptions{Origin: "relay-1", Token: peerToken, Client: client})
	if err != nil {
		return nil, errors.Join(err, c.close())
	}
	rsrv := newServer()
	rshuf := newShuffler(c.fwd, "topology.forward")
	rreg := metrics.NewRegistry()
	c.wal = walMetrics(rreg)
	c.mgr, err = persist.Open(filepath.Join(dir, "relay-data"), rshuf, rsrv, persist.Options{
		SyncInterval: 25 * time.Millisecond, CheckpointInterval: time.Second, Metrics: c.wal,
		Cursor: c.fwd, Logf: func(string, ...any) {},
	})
	if err != nil {
		return nil, errors.Join(err, c.close())
	}
	c.fwd.SetSync(c.mgr.SyncWAL)
	rurl, err := serve("relay", httpapi.NewRelayHandler(rshuf, c.fwd, httpapi.RelayOptions{
		Ingest: ingest(c.mgr), Checkpoint: c.mgr.Checkpoint, Health: func() any { return c.mgr.Info() },
		Admission: adm(), WALPolicy: policy, Metrics: rreg,
		Shapes: httpapi.ModelShapes{K: codeSpace, Arms: arms, D: ctxDim},
	}))
	if err != nil {
		return nil, errors.Join(err, c.close())
	}
	f.ingestURL = rurl
	c.ingestShuf = rshuf
	return f, nil
}

// close stops the listeners (relay first), closes the WAL and removes
// the filesystem hooks.
func (c *composition) close() error {
	var errs []error
	for i := len(c.https) - 1; i >= 0; i-- {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := c.https[i].Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("stopping listener: %w", err))
		}
		cancel()
	}
	if c.mgr != nil {
		errs = append(errs, c.mgr.Close())
	}
	if c.hooked {
		persist.SetFSHooks(nil)
	}
	return errors.Join(errs...)
}
