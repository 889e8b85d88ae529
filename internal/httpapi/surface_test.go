package httpapi

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"

	"p2b/internal/metrics"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
)

// surfaceRole is one fleet role's pinned HTTP surface: the top-level
// /healthz key sequence, the Prometheus series a fresh handler exposes
// (histogram buckets folded into one line per series) and which of the
// role-specific probes answer 404.
type surfaceRole struct {
	name     string
	build    func(opts NodeOptions) http.Handler
	durable  bool
	healthz  []string
	series   []string
	notFound []string
}

// httpSeries are the per-route HTTP families every role registers: the
// full route set, so dashboards never chase role-dependent series names.
var httpSeries = func() []string {
	var out []string
	for _, r := range []struct {
		route string
		body  bool
	}{
		{"flush", false},
		{"healthz", false},
		{"model", false},
		{"peer_contrib", false},
		{"peer_digest", false},
		{"peer_ingest", true},
		{"raw", true},
		{"report", true},
		{"reports", true},
	} {
		label := `{route="` + r.route + `"}`
		if r.body {
			out = append(out,
				"p2b_http_request_body_bytes_bucket"+label,
				"p2b_http_request_body_bytes_count"+label,
				"p2b_http_request_body_bytes_sum"+label)
		}
		out = append(out,
			"p2b_http_request_duration_seconds_bucket"+label,
			"p2b_http_request_duration_seconds_count"+label,
			"p2b_http_request_duration_seconds_sum"+label)
		for _, class := range []string{"2xx", "3xx", "4xx", "5xx", "429", "503"} {
			out = append(out, `p2b_http_requests_total{route="`+r.route+`",class="`+class+`"}`)
		}
	}
	return out
}()

// The series every role shares beyond the HTTP families: the shuffler
// pipeline, the overload gate and the bulletin-board registration.
var sharedSeries = []string{
	`p2b_board_register_attempts_total`,
	`p2b_board_register_failures_total`,
	`p2b_board_registered`,
	`p2b_ingest_admitted_total`,
	`p2b_ingest_inflight_bytes`,
	`p2b_ingest_inflight_requests`,
	`p2b_ingest_shed_total`,
	`p2b_shuffler_batch_size_bucket`,
	`p2b_shuffler_batch_size_count`,
	`p2b_shuffler_batch_size_sum`,
	`p2b_shuffler_batches_total`,
	`p2b_shuffler_cuts_total{reason="flush"}`,
	`p2b_shuffler_cuts_total{reason="size"}`,
	`p2b_shuffler_dropped_total`,
	`p2b_shuffler_forwarded_total`,
	`p2b_shuffler_pending`,
	`p2b_shuffler_received_total`,
	`p2b_wal_degraded`,
	`p2b_wal_degraded_ops_total`,
}

// modelSeries are the server and model read-path families of a handler
// that serves a model.
var modelSeries = []string{
	`p2b_model_not_modified_total`,
	`p2b_model_payload_builds_total`,
	`p2b_model_payload_hits_total`,
	`p2b_model_version`,
	`p2b_server_raw_ingested_total`,
	`p2b_server_shard_contention_total`,
	`p2b_server_tuples_delivered_total`,
	`p2b_snapshot_cache_builds_total`,
	`p2b_snapshot_cache_hits_total`,
}

// TestRoleHTTPSurface pins, per fleet role, what an operator or a
// dashboard sees: the /healthz key order, the /metrics series set and the
// routes the role does not serve. Every role is built with the same
// overload, degrade, telemetry and board wiring, so any difference between
// the lists is the role's own.
func TestRoleHTTPSurface(t *testing.T) {
	roles := []surfaceRole{
		{
			name: "combined",
			build: func(opts NodeOptions) http.Handler {
				srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1, Shards: 1})
				shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(2))
				return NewNodeHandlerOpts(shuf, srv, opts)
			},
			durable:  true,
			healthz:  []string{"status", "role", "model", "snapshots", "model_reads", "overload", "board", "persist"},
			series:   concat(httpSeries, sharedSeries, modelSeries),
			notFound: []string{"/peer/digest"},
		},
		{
			name: "analyzer",
			build: func(opts NodeOptions) http.Handler {
				srv := server.New(server.Config{K: 8, Arms: 4, D: 3, Alpha: 1, Seed: 1, Shards: 1})
				shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, srv, rng.New(2))
				opts.Role = string(topology.RoleAnalyzer)
				opts.Peer = &PeerOptions{
					Origin: "analyzer-1",
					Sync: func() []topology.SyncStatus {
						return []topology.SyncStatus{{Target: "http://analyzer-2"}}
					},
				}
				return NewNodeHandlerOpts(shuf, srv, opts)
			},
			healthz: []string{"status", "role", "model", "snapshots", "model_reads", "overload", "peers", "board"},
			series: concat(httpSeries, sharedSeries, modelSeries, []string{
				`p2b_peer_merges_applied_total`,
				`p2b_peer_merges_rejected_total`,
				`p2b_peer_relay_batches_total`,
				`p2b_peer_relay_duplicates_total`,
				`p2b_peer_sync_fetched_total`,
				`p2b_peer_sync_max_lag_seconds`,
				`p2b_peer_sync_pull_errors_total`,
				`p2b_peer_sync_pulls_total`,
			}),
			notFound: []string{"/admin/checkpoint"},
		},
		{
			name: "relay",
			build: func(opts NodeOptions) http.Handler {
				fwd, err := topology.NewForwarder("http://127.0.0.1:1", topology.ForwarderOptions{Origin: "relay-1"})
				if err != nil {
					t.Fatal(err)
				}
				shuf := shuffler.New(shuffler.Config{BatchSize: 4, Threshold: 0}, fwd, rng.New(2))
				return NewRelayHandler(shuf, fwd, RelayOptions{
					Ingest: opts.Ingest, Checkpoint: opts.Checkpoint, Health: opts.Health,
					Admission: opts.Admission, WALPolicy: opts.WALPolicy, Metrics: opts.Metrics,
					Board: opts.Board, Shapes: ModelShapes{K: 8, Arms: 4, D: 3},
				})
			},
			durable: true,
			healthz: []string{"status", "role", "model", "downstream", "forward", "overload", "board", "persist"},
			series: concat(httpSeries, sharedSeries, []string{
				`p2b_forward_batches_total`,
				`p2b_forward_dropped_total`,
				`p2b_forward_duplicates_total`,
				`p2b_forward_retries_total`,
				`p2b_forward_tuples_total`,
			}),
			notFound: []string{"/server/stats", "/peer/digest"},
		},
	}
	for _, role := range roles {
		t.Run(role.name, func(t *testing.T) {
			opts := NodeOptions{
				Ingest:    &flakyIngestor{},
				WALPolicy: WALDegrade,
				Admission: NewAdmission(AdmissionConfig{MaxInFlight: 8}),
				Metrics:   metrics.NewRegistry(),
				Board: func() topology.HeartbeatStatus {
					return topology.HeartbeatStatus{Registered: true, Attempts: 1}
				},
			}
			if role.durable {
				opts.Checkpoint = func() error { return nil }
				opts.Health = func() any { return map[string]int{"wal_seq": 1} }
			}
			ts := httptest.NewServer(role.build(opts))
			defer ts.Close()

			if got := healthzKeys(t, ts.URL); !slices.Equal(got, role.healthz) {
				t.Errorf("/healthz keys = %q, want %q", got, role.healthz)
			}
			want := slices.Clone(role.series)
			slices.Sort(want)
			if got := seriesNames(t, ts); !slices.Equal(got, want) {
				t.Errorf("/metrics series:\n got %q\nwant %q", got, want)
			}
			var notFound []string
			for _, probe := range []struct{ method, path string }{
				{http.MethodGet, "/server/stats"},
				{http.MethodGet, "/peer/digest"},
				{http.MethodPost, "/admin/checkpoint"},
			} {
				req, err := http.NewRequest(probe.method, ts.URL+probe.path, nil)
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusNotFound {
					notFound = append(notFound, probe.path)
				}
			}
			if !slices.Equal(notFound, role.notFound) {
				t.Errorf("404 probes = %q, want %q", notFound, role.notFound)
			}
		})
	}
}

func concat(parts ...[]string) []string {
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// healthzKeys returns the top-level keys of the /healthz body in wire
// order.
func healthzKeys(t *testing.T, base string) []string {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("/healthz does not open an object: %v %v", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// bucketLabel strips the le label of a histogram bucket sample, so one
// line stands for the whole bucket ladder.
var bucketLabel = regexp.MustCompile(`,?le="[^"]*"`)

// seriesNames scrapes /metrics and returns every sample's series name
// with its labels, values stripped, buckets folded, sorted and deduped.
func seriesNames(t *testing.T, ts *httptest.Server) []string {
	t.Helper()
	body, _ := scrape(t, ts)
	var out []string
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.LastIndexByte(line, ' ')]
		name = strings.Replace(bucketLabel.ReplaceAllString(name, ""), "{,", "{", 1)
		out = append(out, strings.TrimSuffix(name, "{}"))
	}
	slices.Sort(out)
	return slices.Compact(out)
}
