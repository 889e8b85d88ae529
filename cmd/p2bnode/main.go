// Command p2bnode runs the P2B server-side components as a network
// service: the trusted shuffler and the analyzer server, wired together in
// one process and exposed over HTTP.
//
// Agents POST encoded reports to the shuffler surface — one at a time or,
// at scale, as batch streams — and GET model snapshots from the server
// surface:
//
//	POST /shuffler/report   {"meta":{...},"tuple":{"code":5,"action":1,"reward":1}}
//	POST /shuffler/reports  batch stream: length-prefixed binary frames
//	                        (Content-Type application/x-p2b-batch, see
//	                        internal/transport/wire.go) or NDJSON envelopes
//	                        (application/x-ndjson)
//	POST /shuffler/flush
//	GET  /shuffler/stats
//	GET  /server/model      versioned model sync for agent fleets: the
//	                        model version is the ETag, so an If-None-Match
//	                        poll of an unchanged model costs a 304; the
//	                        body is binary (Accept: application/x-p2b-model)
//	                        or JSON; ?kind=tabular|linucb|centroid
//	GET  /server/model/tabular
//	GET  /server/model/linucb
//	POST /server/raw        (non-private baseline ingestion)
//	GET  /server/stats
//	GET  /healthz           liveness + persistence status
//	GET  /metrics           Prometheus text exposition: per-route request
//	                        counts/latency, shuffler and server pipeline
//	                        counters, overload and WAL telemetry
//	POST /admin/checkpoint  force a checkpoint (with -data-dir only)
//
// # Multi-node topology
//
// -role splits the process into fleet roles (see internal/topology and the
// "Multi-node topology" section of DESIGN.md):
//
//	-role combined  the default: shuffler + analyzer in one process
//	-role relay     shuffler only; finished privacy batches are forwarded
//	                over the P2B1 wire to the analyzer named by -downstream
//	                instead of a local server
//	-role analyzer  full node that additionally expects relay traffic on
//	                POST /peer/ingest
//
// Analyzers (and combined nodes) pull their siblings' model contributions
// from every -peers URL on the -peer-sync interval, so any analyzer can
// serve GET /server/model with the fleet-wide model. Each digest round
// fetches every peer's /peer/digest high-water vector and retrieves only
// the contributions this node is missing from /peer/contrib; digests list
// stored third-party contributions too, so an analyzer that can reach one
// sibling converges on the whole fleet, and one that was partitioned away
// catches up on its own schedule. -peer-token authenticates the peer
// routes in both directions. With -registry the node announces itself on
// a p2bboard bulletin board so agents can discover it.
//
// # Durability
//
// With -data-dir the node is crash-safe: every accepted report batch is
// appended to a write-ahead log before it enters the shuffler, and
// checkpoints capture the server accumulators, the shuffler's pending
// buffer and its permutation-stream position. On boot the node restores
// the last checkpoint and replays the log tail, truncating a torn final
// record; a kill -9 therefore loses at most the appends not yet fsynced
// (none with -wal-sync 0), and the recovered model is bit-identical to an
// uninterrupted run over the logged input. See internal/persist and the
// durability section of DESIGN.md.
//
// On SIGINT/SIGTERM the node shuts down gracefully: the listener stops
// accepting, in-flight requests drain (bounded by -drain), and the
// shuffler's pending batch is flushed through the privacy pipeline into
// the server so reports already accepted are not dropped. A durable node
// logs the flush and writes a final checkpoint.
//
// Usage:
//
//	p2bnode -addr :8080 -k 1024 -arms 20 -d 10 -threshold 10 -batch 320 \
//	        -data-dir /var/lib/p2b -checkpoint-interval 1m -wal-sync 100ms
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"p2b/internal/faultinject"
	"p2b/internal/httpapi"
	"p2b/internal/metrics"
	"p2b/internal/persist"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		k         = flag.Int("k", 1024, "code-space size of the tabular model")
		arms      = flag.Int("arms", 20, "number of actions")
		d         = flag.Int("d", 10, "raw context dimension (baseline model)")
		alpha     = flag.Float64("alpha", 1, "exploration parameter baked into snapshots")
		threshold = flag.Int("threshold", 10, "crowd-blending threshold l")
		batch     = flag.Int("batch", 0, "shuffler batch size (default 32*threshold)")
		seed      = flag.Uint64("seed", 1, "seed for the shuffler's permutation stream")
		shards    = flag.Int("shards", 0, "server ingestion shards (0 = GOMAXPROCS capped at 16; 1 makes ingestion order fully deterministic)")
		drain     = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")

		dataDir   = flag.String("data-dir", "", "directory for WAL + checkpoints (empty = in-memory only, state dies with the process)")
		ckptEvery = flag.Duration("checkpoint-interval", 0, "automatic checkpoint interval (0 = manual via /admin/checkpoint and shutdown)")
		walSync   = flag.Duration("wal-sync", 100*time.Millisecond, "WAL fsync batching interval (0 = fsync every append; strongest durability)")
		walRetain = flag.Bool("wal-retain", false, "keep checkpoint-covered WAL segments instead of pruning (full input stream stays replayable)")
		walPolicy = flag.String("wal-policy", "fail-closed", "ingest behavior when the WAL refuses a write: fail-closed (503 + Retry-After) or degrade (accept into memory, flag degraded on /healthz)")

		maxInFlight      = flag.Int("max-inflight", 256, "max concurrently admitted ingest requests (0 = unbounded)")
		maxInFlightBytes = flag.Int64("max-inflight-bytes", 64<<20, "max summed declared body bytes of admitted ingest requests (0 = unbounded)")
		readTimeout      = flag.Duration("read-timeout", 30*time.Second, "per-request body read deadline on admitted ingest requests (0 = none)")
		retryAfter       = flag.Duration("retry-after", time.Second, "Retry-After hint on shed (429) responses")

		faults    = flag.String("faults", "", "failpoint specs for chaos runs, e.g. \"wal/sync:after=100,count=1;wal/torn:count=1\" (see internal/faultinject)")
		faultSeed = flag.Uint64("fault-seed", 1, "seed for probabilistic failpoints")

		roleFlag    = flag.String("role", "combined", "fleet role: combined, relay or analyzer (see internal/topology)")
		name        = flag.String("name", "", "node name in peer protocols and on the bulletin board (default <role>@<addr>)")
		advertise   = flag.String("advertise", "", "base URL other fleet members reach this node at (default http://localhost<addr>)")
		downstream  = flag.String("downstream", "", "relay only: base URL of the analyzer finished batches are forwarded to")
		peersFlag   = flag.String("peers", "", "comma-separated base URLs of sibling analyzers to pull model contributions from")
		peerSync    = flag.Duration("peer-sync", 2*time.Second, "anti-entropy interval: each digest round fetches every -peers digest and pulls only the contributions this node is missing")
		peerToken   = flag.String("peer-token", "", "bearer token required on inbound /peer/* routes and sent on outbound peer traffic (empty = open)")
		registry    = flag.String("registry", "", "bulletin-board base URL to announce this node on (see cmd/p2bboard; empty = no announcement)")
		registryTTL = flag.Duration("registry-ttl", topology.DefaultTTL, "announcement TTL on the bulletin board")
	)
	flag.Parse()
	if *batch == 0 {
		*batch = 32 * *threshold
		if *batch == 0 {
			*batch = 256
		}
	}

	policy, err := httpapi.ParseWALPolicy(*walPolicy)
	if err != nil {
		log.Fatalf("p2bnode: %v", err)
	}
	role, err := topology.ParseRole(*roleFlag)
	if err != nil {
		log.Fatalf("p2bnode: %v", err)
	}
	if role == topology.RoleRelay && *downstream == "" {
		log.Fatalf("p2bnode: -role relay requires -downstream (the analyzer URL batches forward to)")
	}
	if role != topology.RoleRelay && *downstream != "" {
		log.Fatalf("p2bnode: -downstream only makes sense with -role relay")
	}
	var peerURLs []string
	for _, p := range strings.Split(*peersFlag, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerURLs = append(peerURLs, p)
		}
	}
	if role == topology.RoleRelay && len(peerURLs) > 0 {
		log.Fatalf("p2bnode: -peers only makes sense on analyzer or combined nodes (relays forward, they do not merge)")
	}
	if *name == "" {
		*name = fmt.Sprintf("%s@%s", role, *addr)
	}
	if *advertise == "" {
		if strings.HasPrefix(*addr, ":") {
			*advertise = "http://localhost" + *addr
		} else {
			*advertise = "http://" + *addr
		}
	}
	if *faults != "" {
		specs, err := faultinject.ParseSpecs(*faults)
		if err != nil {
			log.Fatalf("p2bnode: %v", err)
		}
		reg := faultinject.NewRegistry(*faultSeed)
		reg.EnableAll(specs)
		persist.SetFSHooks(&persist.FSHooks{
			BeforeWrite:    reg.FSWrite,
			BeforeSync:     reg.FSSync,
			BeforeTruncate: reg.FSTruncate,
		})
		log.Printf("p2bnode: CHAOS MODE: failpoints armed (%s, seed %d) — not for production", *faults, *faultSeed)
	}

	// The server is constructed for every role. A relay never serves models
	// from it, but the persist layer checkpoints through it, so a durable
	// relay reuses the exact same recovery machinery as a combined node.
	srv := server.New(server.Config{K: *k, Arms: *arms, D: *d, Alpha: *alpha, Seed: *seed, Shards: *shards})

	// The shuffler's sink decides the role's data path: combined and
	// analyzer nodes deliver finished privacy batches into the local server,
	// a relay forwards them downstream over the P2B1 wire.
	var fwd *topology.Forwarder
	var sink shuffler.Sink = srv
	if role == topology.RoleRelay {
		var err error
		fwd, err = topology.NewForwarder(*downstream, topology.ForwarderOptions{
			Origin: *name,
			Token:  *peerToken,
			Logf:   log.Printf,
		})
		if err != nil {
			log.Fatalf("p2bnode: %v", err)
		}
		sink = fwd
	}
	shuf := shuffler.New(shuffler.Config{BatchSize: *batch, Threshold: *threshold}, sink, rng.New(*seed).Split("shuffler"))

	reg := metrics.NewRegistry()
	adm := httpapi.NewAdmission(httpapi.AdmissionConfig{
		MaxInFlight:      *maxInFlight,
		MaxInFlightBytes: *maxInFlightBytes,
		RetryAfter:       *retryAfter,
		ReadTimeout:      *readTimeout,
	})
	var mgr *persist.Manager
	if *dataDir != "" {
		popts := persist.Options{
			SyncInterval:       *walSync,
			CheckpointInterval: *ckptEvery,
			RetainWAL:          *walRetain,
			Metrics:            persist.NewMetrics(reg),
		}
		if fwd != nil {
			// A durable relay persists its forwarding identity: recovery
			// restores the (epoch, seq) cursor before the replay below can
			// re-forward a batch, so WAL-tail retransmits reuse the
			// pre-crash epoch and the analyzer's duplicate guard drops them.
			popts.Cursor = fwd
		}
		var err error
		mgr, err = persist.Open(*dataDir, shuf, srv, popts)
		if err != nil {
			log.Fatalf("p2bnode: recovering %s: %v", *dataDir, err)
		}
		if fwd != nil {
			// Every forwarded batch first syncs the WAL records behind it,
			// so a crash can never truncate records a downstream analyzer
			// already counted under this (epoch, seq).
			fwd.SetSync(mgr.SyncWAL)
			epoch, fseq := fwd.Cursor()
			log.Printf("p2bnode: relay cursor epoch %d seq %d (restored: %v)", epoch, fseq, mgr.Recovery().CursorRestored)
		}
		rec := mgr.Recovery()
		log.Printf("p2bnode: durable in %s (checkpoint seq %d, replayed %d records, wal at seq %d)",
			*dataDir, rec.CheckpointSeq, rec.ReplayedRecords, rec.LastSeq)
		// WAL position gauges: sampled from the same Info() /healthz serves.
		reg.GaugeFunc("p2b_wal_seq", "",
			"Sequence number of the last WAL append.",
			func() float64 { return float64(mgr.Info().WALSeq) })
		reg.GaugeFunc("p2b_wal_checkpoint_seq", "",
			"WAL position of the last completed checkpoint.",
			func() float64 { return float64(mgr.Info().CheckpointSeq) })
		reg.GaugeFunc("p2b_wal_segments", "",
			"Live WAL segment files on disk.",
			func() float64 { return float64(mgr.Info().Segments) })
	}

	// Anti-entropy: analyzers and combined nodes with -peers pull what
	// they are missing from every sibling on the -peer-sync interval.
	var peering *topology.Peering
	if len(peerURLs) > 0 {
		var err error
		peering, err = topology.NewPeering(topology.PeeringOptions{
			Origin:   *name,
			Peers:    peerURLs,
			Interval: *peerSync,
			Token:    *peerToken,
			Server:   srv,
			Logf:     log.Printf,
		})
		if err != nil {
			log.Fatalf("p2bnode: %v", err)
		}
		peering.Start()
		log.Printf("p2bnode: pulling from %d peer(s) every %v as origin %q", len(peerURLs), *peerSync, *name)
	}

	// The heartbeat handle exists before the handlers so its Status can be
	// wired into /healthz and /metrics; the loop itself starts only once
	// the listener is up, so agents discovering this node find it
	// reachable. ovProbe is filled by the handler constructor below and
	// lets each announcement carry the node's live degrade state.
	var hb *topology.Heartbeat
	var ovProbe func() httpapi.OverloadStats
	if *registry != "" {
		hb = topology.NewHeartbeat(*registry,
			topology.Node{Name: *name, Role: role, URL: *advertise},
			topology.HeartbeatOptions{
				TTL:      *registryTTL,
				Logf:     log.Printf,
				Seed:     *seed,
				Degraded: func() bool { return ovProbe != nil && ovProbe().Degraded },
			})
	}
	var boardStatus func() topology.HeartbeatStatus
	if hb != nil {
		boardStatus = hb.Status
	}

	opts := httpapi.NodeOptions{
		WALPolicy: policy,
		Metrics:   reg,
		Admission: adm,
		Role:      string(role),
		Board:     boardStatus,
		Overload:  &ovProbe,
	}
	if mgr != nil {
		opts.Ingest = mgr
		opts.Checkpoint = mgr.Checkpoint
		opts.Health = func() any { return mgr.Info() }
	}
	var handler http.Handler
	if role == topology.RoleRelay {
		opts.Shapes = httpapi.ModelShapes{K: *k, Arms: *arms, D: *d}
		handler = httpapi.NewRelayHandler(shuf, fwd, opts)
	} else {
		opts.Peer = &httpapi.PeerOptions{
			Origin: *name,
			Token:  *peerToken,
			Epoch:  topology.BootEpoch(),
			Export: srv.ExportState,
		}
		if mgr != nil {
			// Relay batches ride the same WAL as agent reports, so a crash
			// between accept and apply replays them instead of losing them.
			opts.Peer.Deliver = mgr.DeliverPeer
		}
		if peering != nil {
			opts.Peer.Sync = peering.Status
		}
		handler = httpapi.NewNodeHandlerOpts(shuf, srv, opts)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Announce on the bulletin board last, once the listener is about to
	// accept: agents discovering this node should find it reachable. An
	// unreachable board is retried on a jittered backoff inside the loop.
	if hb != nil {
		hb.Start()
		log.Printf("p2bnode: announcing %q (%s) at %s on board %s", *name, role, *advertise, *registry)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("p2bnode listening on %s as %s %q (k=%d arms=%d d=%d threshold=%d batch=%d)",
		*addr, role, *name, *k, *arms, *d, *threshold, *batch)

	select {
	case err := <-errCh:
		// The listener died on its own (port in use, ...): nothing to drain.
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	log.Printf("p2bnode: shutting down (drain %v)", *drain)
	if hb != nil {
		hb.Stop() // let the board entry expire; agents stop picking us
	}

	// Stop accepting and drain in-flight requests first, so no report can
	// slip into the shuffler after the final flush below.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("p2bnode: drain incomplete: %v", err)
	}
	// Stop pulling. Siblings fetch this node's contribution themselves,
	// so nothing is handed over on exit: a durable node serves its last
	// local delta from the final checkpoint on its next boot.
	if peering != nil {
		peering.Close()
	}

	// Push the pending sub-batch through the privacy pipeline. Small
	// flushed batches are the ones most exposed to thresholding — that is
	// correct privacy behaviour, not data loss. On a durable node the flush
	// is logged (replay must flush at the same position) and followed by a
	// final checkpoint, so the next boot starts from this exact state.
	if mgr != nil {
		if err := mgr.Flush(); err != nil {
			log.Printf("p2bnode: final flush: %v", err)
		}
		if err := mgr.Checkpoint(); err != nil {
			log.Printf("p2bnode: final checkpoint: %v", err)
		}
		if err := mgr.Close(); err != nil {
			log.Printf("p2bnode: closing wal: %v", err)
		}
	} else {
		shuf.Flush()
	}

	sst, shst := srv.Stats(), shuf.Stats()
	log.Printf("p2bnode: final state: %d tuples ingested, %d raw, %d batches shuffled (%d forwarded, %d thresholded)",
		sst.TuplesIngested, sst.RawIngested, shst.Batches, shst.Forwarded, shst.Dropped)
	if fwd != nil {
		fst := fwd.Stats()
		log.Printf("p2bnode: forwarded downstream: %d batches (%d tuples), %d duplicates, %d retries, %d dropped",
			fst.Batches, fst.Tuples, fst.Duplicates, fst.Retries, fst.Dropped)
	}
}
