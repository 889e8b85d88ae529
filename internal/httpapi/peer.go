// The multi-node HTTP surface: the analyzer-side peer routes and the
// relay handler.
//
// Analyzer-side (mounted by NewNodeHandlerOpts when NodeOptions.Peer is
// set):
//
//	POST /peer/ingest  one relay-forwarded privacy batch (P2B1 binary
//	                   stream, positioned by the X-P2b-Peer-* headers);
//	                   delivered straight to the analyzer server — the
//	                   relay already shuffled and thresholded it; answers
//	                   200 with a topology.PeerAck, applied=false for a
//	                   duplicate (which the relay treats as success)
//	GET  /peer/digest  the per-origin (epoch, seq) high-water vector of
//	                   every contribution this node can serve — its own
//	                   live state plus stored sibling contributions — that
//	                   sibling analyzers diff in their digest round
//	GET  /peer/contrib?origin=X  one contribution as a topology.PeerUpdate:
//	                   this node's own (exported live, stamped with the
//	                   local version captured before the export) or a
//	                   stored third party's (served verbatim at its stored
//	                   position, which is what makes healing transitive)
//	GET  /peer/status  replication counters and per-origin positions
//
// When the node was started with a peer token, requests must carry it as
// a bearer token; the digest and contrib GETs are authenticated too — they
// hand out model state.
//
// Relay-side: NewRelayHandler mounts the same /shuffler/ routes a combined
// node serves (same admission gate, same durable-ingest hooks, same
// per-route metrics), plus a /healthz that names the relay role, the
// configured model shapes (so agent preflights validate against a relay
// exactly as against a combined node) and the downstream forward counters.
package httpapi

import (
	"crypto/subtle"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"

	"p2b/internal/metrics"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

// PeerDeliverFunc durably applies one relay-forwarded batch and reports
// whether it changed state (false = duplicate). The durable node wires the
// persist manager's DeliverPeer here; without one the batch goes straight
// to the server.
type PeerDeliverFunc func(origin string, epoch, seq uint64, tuples []transport.Tuple) (bool, error)

// PeerOptions enables and configures the analyzer-side peer routes.
type PeerOptions struct {
	// Origin is this node's own contribution-stream name. Inbound traffic
	// claiming it is refused — that is always a misconfigured fleet
	// (two processes sharing one identity), never valid replication.
	Origin string
	// Token, when non-empty, requires "Authorization: Bearer <token>" on
	// every peer route.
	Token string
	// Deliver applies a relay batch. Nil delivers straight to the server
	// (no durability).
	Deliver PeerDeliverFunc
	// Sync reports the node's digest-round status per peer it pulls from
	// (nil when the node pulls from no peers).
	Sync func() []topology.SyncStatus
	// Epoch is the boot nonce stamping this node's own contribution on
	// /peer/digest and /peer/contrib. Zero (like a nil Export) omits the
	// self entry: the node serves only stored third-party contributions.
	Epoch uint64
	// Export returns the node's LOCAL state for a self-origin contrib
	// fetch (wire it to server.ExportState). Nil omits the self entry
	// from the digest.
	Export func() *server.PersistedState
}

// PeerHealth is the "peers" section of /healthz, /server/stats and the
// GET /peer/status body: the server's replication counters plus the
// digest-round status per peer. The counters are the same atomics the /metrics
// peer collectors sample.
type PeerHealth struct {
	server.PeerStatus
	Sync []topology.SyncStatus `json:"sync,omitempty"`
}

// authorized checks the peer bearer token; an empty configured token
// admits everything (single-operator deployments on a private network).
func (o *PeerOptions) authorized(r *http.Request) bool {
	if o.Token == "" {
		return true
	}
	return subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), []byte("Bearer "+o.Token)) == 1
}

// peerPosition parses the X-P2b-Peer-* headers of a relay batch.
func (o *PeerOptions) peerPosition(r *http.Request) (origin string, epoch, seq uint64, err error) {
	origin = r.Header.Get(topology.OriginHeader)
	if origin == "" {
		return "", 0, 0, fmt.Errorf("httpapi: missing %s header", topology.OriginHeader)
	}
	if origin == o.Origin {
		return "", 0, 0, fmt.Errorf("httpapi: peer traffic claims this node's own origin %q", origin)
	}
	epoch, err = strconv.ParseUint(r.Header.Get(topology.EpochHeader), 10, 64)
	if err != nil {
		return "", 0, 0, fmt.Errorf("httpapi: bad %s header: %v", topology.EpochHeader, err)
	}
	seq, err = strconv.ParseUint(r.Header.Get(topology.SeqHeader), 10, 64)
	if err != nil {
		return "", 0, 0, fmt.Errorf("httpapi: bad %s header: %v", topology.SeqHeader, err)
	}
	return origin, epoch, seq, nil
}

// newPeerHandler mounts the peer routes. srv is the analyzer server relay
// batches land in and contributions are served from; adm bounds the ingest
// route exactly like the agent ingest routes (relay traffic competes for
// the same admission budget — the node's memory does not care who sent the
// bytes); nm instruments the routes; peers builds the status payload.
func newPeerHandler(srv *server.Server, opts *PeerOptions, adm *Admission, nm *nodeMetrics, peers func() *PeerHealth) http.Handler {
	deliver := opts.Deliver
	if deliver == nil {
		deliver = func(origin string, epoch, seq uint64, tuples []transport.Tuple) (bool, error) {
			return srv.DeliverPeerBatch(origin, epoch, seq, tuples), nil
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", nm.wrap("peer_ingest", adm.guard(func(w http.ResponseWriter, r *http.Request) {
		if !opts.authorized(r) {
			http.Error(w, "httpapi: peer token required", http.StatusUnauthorized)
			return
		}
		origin, epoch, seq, err := opts.peerPosition(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ct, _, err := mime.ParseMediaType(r.Header.Get("Content-Type"))
		if err != nil || ct != transport.ContentTypeBinary {
			http.Error(w, fmt.Sprintf("httpapi: peer batches are %s only", transport.ContentTypeBinary), http.StatusUnsupportedMediaType)
			return
		}
		// The whole batch is decoded before anything is applied: the
		// (origin, epoch, seq) position deduplicates the batch as a unit,
		// so a half-applied batch must not exist.
		fr, err := transport.NewFrameReader(http.MaxBytesReader(w, r.Body, maxBatchBodyBytes))
		if err != nil {
			writeBodyError(w, err)
			return
		}
		var tuples []transport.Tuple
		var t transport.Tuple
		for {
			if err := fr.NextTuple(&t); err != nil {
				if err == io.EOF {
					break
				}
				writeBodyError(w, err)
				return
			}
			tuples = append(tuples, t)
		}
		applied, err := deliver(origin, epoch, seq, tuples)
		if err != nil {
			// The durable log refused the write: retryable, same contract
			// as the agent ingest routes.
			writeBodyError(w, ingestError{err})
			return
		}
		writeJSON(w, topology.PeerAck{Applied: applied})
	})))
	mux.HandleFunc("GET /digest", nm.wrap("peer_digest", func(w http.ResponseWriter, r *http.Request) {
		if !opts.authorized(r) {
			http.Error(w, "httpapi: peer token required", http.StatusUnauthorized)
			return
		}
		var d topology.Digest
		if opts.Export != nil && opts.Epoch != 0 {
			// The self entry advertises the live local version, the same
			// counter /peer/contrib stamps its export with, so a sibling
			// holding the last fetch sees a gap exactly when local state
			// moved since.
			d.Entries = append(d.Entries, topology.DigestEntry{
				Origin: opts.Origin, Epoch: opts.Epoch, Seq: srv.LocalVersion(),
			})
		}
		for _, c := range srv.PeerStatus().Contributions {
			d.Entries = append(d.Entries, topology.DigestEntry{Origin: c.Origin, Epoch: c.Epoch, Seq: c.Seq})
		}
		writeJSON(w, d)
	}))
	mux.HandleFunc("GET /contrib", nm.wrap("peer_contrib", func(w http.ResponseWriter, r *http.Request) {
		if !opts.authorized(r) {
			http.Error(w, "httpapi: peer token required", http.StatusUnauthorized)
			return
		}
		origin := r.URL.Query().Get("origin")
		if origin == "" {
			http.Error(w, "httpapi: contrib fetch needs an origin query parameter", http.StatusBadRequest)
			return
		}
		if origin == opts.Origin && opts.Export != nil && opts.Epoch != 0 {
			// The version is captured BEFORE the export: the exported
			// content is at least that version, so the puller stores a
			// floor — the race with a concurrent ingest costs a redundant
			// refetch next round, never a missed update.
			version := srv.LocalVersion()
			state := opts.Export()
			// Relay duplicate-guard positions stay local: the puller
			// stores this as OUR contribution and must not inherit our
			// dedup state.
			state.Relays = nil
			writeJSON(w, topology.PeerUpdate{Origin: origin, Epoch: opts.Epoch, Seq: version, State: state})
			return
		}
		pos, state, ok := srv.PeerContribution(origin)
		if !ok {
			http.Error(w, fmt.Sprintf("httpapi: no stored contribution from origin %q", origin), http.StatusNotFound)
			return
		}
		writeJSON(w, topology.PeerUpdate{Origin: origin, Epoch: pos.Epoch, Seq: pos.Seq, State: state})
	}))
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, peers())
	})
	return mux
}

// RelayOptions configures a relay handler. The zero value is a plain
// in-memory relay.
type RelayOptions struct {
	// Ingest handles report admission, exactly as on a combined node: nil
	// submits straight to the shuffler, a durable relay wires its persist
	// manager here.
	Ingest Ingestor
	// Checkpoint, when non-nil, enables POST /admin/checkpoint.
	Checkpoint func() error
	// Health, when non-nil, contributes a "persist" section to /healthz.
	Health func() any
	// Admission bounds the ingest routes (nil = unbounded).
	Admission *Admission
	// WALPolicy selects fail-closed (default) or degrade-to-memory when
	// Ingest refuses a write.
	WALPolicy WALPolicy
	// Metrics, when non-nil, instruments the routes, the shuffler and the
	// forwarder on this registry and mounts GET /metrics.
	Metrics *metrics.Registry
	// Shapes are the fleet's model dimensions, advertised on /healthz so
	// agent preflights validate against a relay exactly as against a
	// combined node (a relay holds no model of its own to derive them
	// from).
	Shapes ModelShapes
	// Board reports the relay's bulletin-board registration health on
	// /healthz and the p2b_board_* families, exactly as NodeOptions.Board
	// does on a combined node.
	Board func() topology.HeartbeatStatus
	// Overload, when non-nil, is filled in at construction with the
	// overload snapshot closure, exactly as NodeOptions.Overload.
	Overload *func() OverloadStats
}

// RelayHealth is the relay's /healthz body.
type RelayHealth struct {
	Status     string                    `json:"status"`
	Role       string                    `json:"role"`
	Model      ModelShapes               `json:"model"`
	Downstream string                    `json:"downstream"`
	Forward    topology.ForwardStats     `json:"forward"`
	Overload   *OverloadStats            `json:"overload,omitempty"`
	Board      *topology.HeartbeatStatus `json:"board,omitempty"`
	Persist    any                       `json:"persist,omitempty"`
}

// NewRelayHandler mounts the HTTP surface of a relay node: the full
// /shuffler/ route set (agents cannot tell a relay from a combined node),
// /healthz naming the relay role and the forward counters, optional
// /admin/checkpoint, and /metrics when a registry is given. fwd is the
// forwarder wired as the shuffler's sink; its counters are what /healthz
// and the p2b_forward_* families report.
func NewRelayHandler(shuf *shuffler.Shuffler, fwd *topology.Forwarder, opts RelayOptions) http.Handler {
	ing := opts.Ingest
	if ing == nil {
		ing = shufflerIngestor{shuf}
	}
	var deg *degradingIngestor
	if opts.WALPolicy == WALDegrade && opts.Ingest != nil {
		deg = &degradingIngestor{primary: opts.Ingest, fallback: shufflerIngestor{shuf}}
		ing = deg
	}
	var overload func() OverloadStats
	if opts.Admission != nil || deg != nil {
		overload = func() OverloadStats {
			st := opts.Admission.Stats()
			if deg != nil {
				st.Degraded = deg.degraded.Load()
				st.DegradedOps = deg.degradedOps.Load()
			}
			return st
		}
	}
	if opts.Overload != nil {
		*opts.Overload = overload
	}
	var nm *nodeMetrics
	mux := http.NewServeMux()
	if opts.Metrics != nil {
		nm = newRelayMetrics(opts.Metrics, shuf, fwd, overload, opts.Board)
		mux.Handle("GET /metrics", metrics.Handler(opts.Metrics))
	}
	mux.Handle("/shuffler/", http.StripPrefix("/shuffler", newShufflerHandlerOpts(shuf, ing, opts.Admission, overload, nm)))
	mux.HandleFunc("GET /healthz", nm.wrap("healthz", func(w http.ResponseWriter, r *http.Request) {
		status := RelayHealth{
			Status:     "ok",
			Role:       string(topology.RoleRelay),
			Model:      opts.Shapes,
			Downstream: fwd.Downstream(),
			Forward:    fwd.Stats(),
		}
		if overload != nil {
			ov := overload()
			status.Overload = &ov
			if ov.Degraded {
				status.Status = "degraded"
			}
		}
		if opts.Board != nil {
			bs := opts.Board()
			status.Board = &bs
		}
		if opts.Health != nil {
			status.Persist = opts.Health()
		}
		writeJSON(w, status)
	}))
	if opts.Checkpoint != nil {
		mux.HandleFunc("POST /admin/checkpoint", func(w http.ResponseWriter, r *http.Request) {
			if err := opts.Checkpoint(); err != nil {
				http.Error(w, fmt.Sprintf("httpapi: checkpoint failed: %v", err), http.StatusInternalServerError)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		})
	}
	return mux
}
