package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p2b/internal/metrics"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

// newAnalyzer builds an analyzer-role node handler with peer routes and a
// metrics registry, returning the pieces tests poke at.
func newAnalyzer(t *testing.T, origin, token string) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1, Shards: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(2))
	h := NewNodeHandlerOpts(shuf, srv, NodeOptions{
		Metrics:   metrics.NewRegistry(),
		Admission: NewAdmission(AdmissionConfig{MaxInFlight: 8}),
		Role:      string(topology.RoleAnalyzer),
		Peer:      &PeerOptions{Origin: origin, Token: token},
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return srv, ts
}

func peerBatch(n int) []transport.Tuple {
	out := make([]transport.Tuple, n)
	for i := range out {
		out[i] = transport.Tuple{Code: i % 8, Action: i % 4, Reward: float64(i % 2)}
	}
	return out
}

func TestPeerIngestOverWire(t *testing.T) {
	srv, ts := newAnalyzer(t, "analyzer-1", "s3cret")

	fwd, err := topology.NewForwarder(ts.URL, topology.ForwarderOptions{
		Origin: "relay-1", Epoch: 7, Token: "s3cret", RetryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd.Deliver(peerBatch(6))
	if st := fwd.Stats(); st.Batches != 1 || st.Duplicates != 0 {
		t.Fatalf("forward stats = %+v", st)
	}
	if st := srv.Stats(); st.TuplesIngested != 6 {
		t.Fatalf("analyzer ingested %d tuples, want 6", st.TuplesIngested)
	}

	// A second relay process resuming the same (origin, epoch) stream —
	// the WAL-tail re-forward scenario — acks duplicate, applies nothing.
	fwd2, err := topology.NewForwarder(ts.URL, topology.ForwarderOptions{
		Origin: "relay-1", Epoch: 7, Token: "s3cret", RetryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fwd2.Deliver(peerBatch(6))
	if st := fwd2.Stats(); st.Duplicates != 1 {
		t.Fatalf("resumed stream stats = %+v", st)
	}
	if st := srv.Stats(); st.TuplesIngested != 6 {
		t.Fatalf("duplicate folded in: %d tuples", st.TuplesIngested)
	}

	// Wrong token: 401, sticky (no retry storm), nothing applied.
	bad, err := topology.NewForwarder(ts.URL, topology.ForwarderOptions{
		Origin: "relay-2", Token: "wrong", MaxRetries: 3, RetryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad.Deliver(peerBatch(2))
	if st := bad.Stats(); st.Dropped != 1 || st.Retries != 0 {
		t.Fatalf("unauthorized stats = %+v", st)
	}
	if st := srv.Stats(); st.TuplesIngested != 6 {
		t.Fatalf("unauthorized batch folded in: %d tuples", st.TuplesIngested)
	}
}

func TestPeerIngestRejectsMalformedRequests(t *testing.T) {
	_, ts := newAnalyzer(t, "analyzer-1", "")

	post := func(headers map[string]string, ct string, body []byte) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/peer/ingest", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", ct)
		for k, v := range headers {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	frames := transport.AppendMagic(nil)
	e := transport.Envelope{Tuple: transport.Tuple{Code: 1, Action: 1, Reward: 1}}
	frames = e.AppendFrame(frames)

	full := map[string]string{
		topology.OriginHeader: "relay-1",
		topology.EpochHeader:  "1",
		topology.SeqHeader:    "1",
	}
	if got := post(map[string]string{topology.EpochHeader: "1", topology.SeqHeader: "1"}, transport.ContentTypeBinary, frames); got != http.StatusBadRequest {
		t.Fatalf("missing origin: status %d, want 400", got)
	}
	if got := post(map[string]string{topology.OriginHeader: "relay-1", topology.EpochHeader: "x", topology.SeqHeader: "1"}, transport.ContentTypeBinary, frames); got != http.StatusBadRequest {
		t.Fatalf("bad epoch: status %d, want 400", got)
	}
	// A relay claiming the analyzer's own origin is a fleet misconfiguration.
	self := map[string]string{topology.OriginHeader: "analyzer-1", topology.EpochHeader: "1", topology.SeqHeader: "1"}
	if got := post(self, transport.ContentTypeBinary, frames); got != http.StatusBadRequest {
		t.Fatalf("self-origin: status %d, want 400", got)
	}
	// Peer batches are binary-only: the NDJSON fallback exists for agents,
	// not relays.
	if got := post(full, "application/x-ndjson", []byte("{}\n")); got != http.StatusUnsupportedMediaType {
		t.Fatalf("ndjson: status %d, want 415", got)
	}
	if got := post(full, transport.ContentTypeBinary, []byte("junk")); got != http.StatusBadRequest {
		t.Fatalf("garbage stream: status %d, want 400", got)
	}
	if got := post(full, transport.ContentTypeBinary, frames); got != http.StatusOK {
		t.Fatalf("well-formed batch: status %d, want 200", got)
	}
}

// newContributor builds an analyzer serving its own contribution on
// /peer/digest and /peer/contrib, with n tuples of local state.
func newContributor(t *testing.T, origin string, epoch uint64, n int) *httptest.Server {
	t.Helper()
	srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 2, Shards: 1})
	srv.Deliver(peerBatch(n))
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(3))
	ts := httptest.NewServer(NewNodeHandlerOpts(shuf, srv, NodeOptions{
		Peer: &PeerOptions{Origin: origin, Epoch: epoch, Export: srv.ExportState},
	}))
	t.Cleanup(ts.Close)
	return ts
}

// newPullingNode builds an analyzer-role node whose digest round pulls
// from peers and whose peer surfaces report that round's status, the way
// p2bnode wires them. The round is never started; tests drive DigestSync.
func newPullingNode(t *testing.T, origin string, peers ...string) (*server.Server, *topology.Peering, *httptest.Server) {
	t.Helper()
	srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1, Shards: 1})
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(2))
	peering, err := topology.NewPeering(topology.PeeringOptions{
		Origin:   origin,
		Peers:    peers,
		Interval: time.Hour,
		Server:   srv,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewNodeHandlerOpts(shuf, srv, NodeOptions{
		Metrics: metrics.NewRegistry(),
		Role:    string(topology.RoleAnalyzer),
		Peer:    &PeerOptions{Origin: origin, Sync: peering.Status},
	}))
	t.Cleanup(ts.Close)
	return srv, peering, ts
}

func TestPeerStatusAndHealthzReportRoleAndPeers(t *testing.T) {
	remote := newContributor(t, "analyzer-2", 9, 8)
	_, peering, ts := newPullingNode(t, "analyzer-1", remote.URL)

	// The first round fetches analyzer-2's contribution; the second finds
	// it covered and fetches nothing.
	peering.DigestSync()
	peering.DigestSync()

	var health struct {
		Role  string      `json:"role"`
		Peers *PeerHealth `json:"peers"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Role != "analyzer" {
		t.Fatalf("healthz role = %q", health.Role)
	}
	if health.Peers == nil || health.Peers.MergesApplied != 1 || health.Peers.MergesRejected != 0 {
		t.Fatalf("healthz peers = %+v", health.Peers)
	}
	if len(health.Peers.Sync) != 1 || health.Peers.Sync[0].Target != remote.URL ||
		health.Peers.Sync[0].Pulls != 2 || health.Peers.Sync[0].Fetched != 1 {
		t.Fatalf("healthz sync = %+v", health.Peers.Sync)
	}
	if len(health.Peers.Contributions) != 1 || health.Peers.Contributions[0].Origin != "analyzer-2" {
		t.Fatalf("healthz contributions = %+v", health.Peers.Contributions)
	}

	var stats struct {
		Role  string      `json:"role"`
		Peers *PeerHealth `json:"peers"`
	}
	getJSON(t, ts.URL+"/server/stats", &stats)
	if stats.Role != "analyzer" || stats.Peers == nil || stats.Peers.MergesApplied != 1 {
		t.Fatalf("server/stats role=%q peers=%+v", stats.Role, stats.Peers)
	}

	var peerStatus PeerHealth
	getJSON(t, ts.URL+"/peer/status", &peerStatus)
	if peerStatus.MergesApplied != 1 || len(peerStatus.Sync) != 1 {
		t.Fatalf("peer/status = %+v", peerStatus)
	}

	// No drift: the Prometheus families must quote the same counters the
	// JSON surfaces report.
	body, fams := scrape(t, ts)
	for name, want := range map[string]string{
		"p2b_peer_merges_applied_total":   "1",
		"p2b_peer_merges_rejected_total":  "0",
		"p2b_peer_relay_batches_total":    "0",
		"p2b_peer_sync_pulls_total":       "2",
		"p2b_peer_sync_pull_errors_total": "0",
		"p2b_peer_sync_fetched_total":     "1",
	} {
		if !fams[name] {
			t.Fatalf("family %s missing from /metrics:\n%s", name, body)
		}
		if !strings.Contains(body, fmt.Sprintf("%s %s", name, want)) {
			t.Fatalf("%s != %s in:\n%s", name, want, body)
		}
	}
	if !strings.Contains(body, "p2b_peer_sync_max_lag_seconds") {
		t.Fatalf("lag gauge missing:\n%s", body)
	}
}

// A clean digest round clears the last error and stamps the sync time, so
// a healed peer stops reading as broken on /peer/status and the lag gauge
// leaves its "never reached" value.
func TestDigestRoundStatusRecoversAfterFailure(t *testing.T) {
	remote := newContributor(t, "analyzer-2", 9, 8)
	var down atomic.Bool
	down.Store(true)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "partitioned", http.StatusServiceUnavailable)
			return
		}
		http.Redirect(w, r, remote.URL+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	}))
	defer flaky.Close()
	_, peering, ts := newPullingNode(t, "analyzer-1", flaky.URL)

	lag := func() float64 {
		t.Helper()
		body, _ := scrape(t, ts)
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, "p2b_peer_sync_max_lag_seconds "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		t.Fatalf("lag gauge missing:\n%s", body)
		return 0
	}

	peering.DigestSync()
	var st PeerHealth
	getJSON(t, ts.URL+"/peer/status", &st)
	if len(st.Sync) != 1 || st.Sync[0].LastError == "" || st.Sync[0].PullErrors != 1 {
		t.Fatalf("failed round status = %+v, want a recorded error", st.Sync)
	}
	if got := lag(); got != -1 {
		t.Fatalf("lag after a failed first round = %v, want -1", got)
	}

	down.Store(false)
	peering.DigestSync()
	st = PeerHealth{} // a cleared last_error is omitted, not overwritten
	getJSON(t, ts.URL+"/peer/status", &st)
	if len(st.Sync) != 1 || st.Sync[0].LastError != "" || st.Sync[0].Pulls != 1 || st.Sync[0].Fetched != 1 {
		t.Fatalf("healed round status = %+v, want a clean pull with the error cleared", st.Sync)
	}
	if got := lag(); got < 0 {
		t.Fatalf("lag after a healed round = %v, want >= 0", got)
	}
	if st.MergesApplied != 1 {
		t.Fatalf("healed round applied %d merges, want 1", st.MergesApplied)
	}
}

func TestRelayHandlerEndToEnd(t *testing.T) {
	// Downstream analyzer.
	analyzerSrv, analyzerTS := newAnalyzer(t, "analyzer-1", "tok")

	// Relay: shuffler whose sink forwards to the analyzer.
	fwd, err := topology.NewForwarder(analyzerTS.URL, topology.ForwarderOptions{
		Origin: "relay-1", Token: "tok", RetryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, fwd, rng.New(3))
	reg := metrics.NewRegistry()
	relayTS := httptest.NewServer(NewRelayHandler(shuf, fwd, RelayOptions{
		Admission: NewAdmission(AdmissionConfig{MaxInFlight: 8}),
		Metrics:   reg,
		Shapes:    ModelShapes{K: 8, Arms: 4, D: 3},
	}))
	defer relayTS.Close()

	// Agents cannot tell a relay from a combined node: the same client
	// reports through the same shuffler surface.
	client := NewNodeClient(relayTS.URL)
	for i := 0; i < 8; i++ {
		if err := client.Report(transport.Envelope{Tuple: transport.Tuple{Code: i % 8, Action: i % 4, Reward: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := analyzerSrv.Stats(); st.TuplesIngested != 8 {
		t.Fatalf("analyzer ingested %d tuples, want 8", st.TuplesIngested)
	}

	// The relay's /healthz names its role, shapes and forward counters.
	var health RelayHealth
	getJSON(t, relayTS.URL+"/healthz", &health)
	if health.Role != "relay" || health.Status != "ok" {
		t.Fatalf("relay healthz = %+v", health)
	}
	if health.Model.K != 8 || health.Model.Arms != 4 || health.Model.D != 3 {
		t.Fatalf("relay shapes = %+v (agent preflights would fail)", health.Model)
	}
	if health.Downstream != analyzerTS.URL || health.Forward.Batches != 2 || health.Forward.Tuples != 8 {
		t.Fatalf("relay forward = %+v", health)
	}

	body, fams := scrape(t, relayTS)
	for _, name := range []string{
		"p2b_forward_batches_total",
		"p2b_forward_tuples_total",
		"p2b_forward_duplicates_total",
		"p2b_forward_dropped_total",
		"p2b_shuffler_received_total",
		"p2b_http_requests_total",
	} {
		if !fams[name] {
			t.Fatalf("relay metrics missing %s:\n%s", name, body)
		}
	}
	if !strings.Contains(body, "p2b_forward_tuples_total 8") {
		t.Fatalf("forward tuple counter drifted:\n%s", body)
	}
}

// getJSON fetches url and decodes the body.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// FuzzPeerPosition drives the X-P2b-Peer-* header parser of relay batches:
// it never panics, it accepts exactly the positions with a foreign
// non-empty origin and two base-10 uint64 counters, and what it accepts is
// what the headers say.
func FuzzPeerPosition(f *testing.F) {
	const self = "analyzer-1"
	f.Add("relay-1", "7", "1")
	f.Add("relay-1", "0", "0")
	f.Add("relay-1", "18446744073709551615", "18446744073709551615")
	f.Add("relay-1", "18446744073709551616", "1")
	f.Add(self, "1", "1")
	f.Add("", "1", "1")
	f.Add("relay-1", "x", "1")
	f.Add("relay-1", "1", "")
	f.Add("relay-1", "-1", "1")
	f.Add("relay-1", "+1", "1")
	f.Add("relay-1", "0x10", " 1")
	f.Fuzz(func(t *testing.T, origin, epochHdr, seqHdr string) {
		o := &PeerOptions{Origin: self}
		r := httptest.NewRequest(http.MethodPost, "/peer/ingest", nil)
		r.Header.Set(topology.OriginHeader, origin)
		r.Header.Set(topology.EpochHeader, epochHdr)
		r.Header.Set(topology.SeqHeader, seqHdr)
		gotOrigin, epoch, seq, err := o.peerPosition(r)

		// Header.Set stores the value verbatim; compare against what the
		// parser actually sees.
		origin = r.Header.Get(topology.OriginHeader)
		wantEpoch, epochErr := strconv.ParseUint(r.Header.Get(topology.EpochHeader), 10, 64)
		wantSeq, seqErr := strconv.ParseUint(r.Header.Get(topology.SeqHeader), 10, 64)
		valid := origin != "" && origin != self && epochErr == nil && seqErr == nil
		if valid != (err == nil) {
			t.Fatalf("peerPosition(%q, %q, %q) err = %v, want valid=%v", origin, epochHdr, seqHdr, err, valid)
		}
		if err != nil {
			return
		}
		if gotOrigin == "" || gotOrigin == self || gotOrigin != origin {
			t.Fatalf("accepted origin %q from header %q", gotOrigin, origin)
		}
		if epoch != wantEpoch || seq != wantSeq {
			t.Fatalf("accepted (%d, %d), headers parse to (%d, %d)", epoch, seq, wantEpoch, wantSeq)
		}
	})
}
