// The in-process version of the topology-equivalence CI check: a
// partitioned fleet — two relays forwarding to two peered analyzers — must
// converge to the byte-identical model a single combined node computes
// over the same input.
//
// The exactness conditions (see DESIGN.md "Multi-node topology"):
// integral rewards and integer-valued sums make every accumulator addition
// exact, so addition is associative and fold order cannot matter; uniform
// batches keep the crowd-blending threshold from dropping different
// multisets on different nodes; -shards 1 removes scheduling
// nondeterminism inside each server.
package topology_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"p2b/internal/httpapi"
	"p2b/internal/metrics"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

const (
	eqK, eqArms, eqD = 16, 4, 3
	eqBatch, eqThr   = 8, 4
)

func eqServer() *server.Server {
	return server.New(server.Config{K: eqK, Arms: eqArms, D: eqD, Alpha: 1, Seed: 1, Shards: 1})
}

// eqBatches builds uniform batches: every tuple in a batch shares one
// (code, action) pair, so the per-batch crowd count is the batch size and
// the threshold never drops anything — the kept multiset is identical no
// matter which shuffler processed the batch. Rewards are {0,1}: integral,
// so sums are exact.
func eqBatches(n int, seed uint64) [][]transport.Tuple {
	r := rng.New(seed)
	out := make([][]transport.Tuple, n)
	for i := range out {
		code, action := r.IntN(eqK), r.IntN(eqArms)
		b := make([]transport.Tuple, eqBatch)
		for j := range b {
			b[j] = transport.Tuple{Code: code, Action: action, Reward: float64(r.IntN(2))}
		}
		out[i] = b
	}
	return out
}

// submit posts one batch over the binary wire and flushes, mirroring how
// the equivalence script drives real processes phase by phase.
func submit(t *testing.T, nodeURL string, batches [][]transport.Tuple) {
	t.Helper()
	client := httpapi.NewNodeClient(nodeURL)
	for _, b := range batches {
		for _, tup := range b {
			if err := client.Report(transport.Envelope{Tuple: tup}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}
}

func fetchModel(t *testing.T, nodeURL string) string {
	t.Helper()
	resp, err := http.Get(nodeURL + "/server/model/tabular")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /server/model/tabular: status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestPartitionedFleetMatchesSingleNodeByteForByte(t *testing.T) {
	batches := eqBatches(12, 77)
	partA, partB := batches[:6], batches[6:]

	// Reference: one combined node sees everything.
	singleSrv := eqServer()
	singleShuf := shuffler.New(shuffler.Config{BatchSize: eqBatch, Threshold: eqThr}, singleSrv, rng.New(5))
	single := httptest.NewServer(httpapi.NewNodeHandlerOpts(singleShuf, singleSrv, httpapi.NodeOptions{}))
	defer single.Close()
	submit(t, single.URL, partA)
	submit(t, single.URL, partB)

	// Fleet: two analyzers peered with each other...
	a1Srv, a2Srv := eqServer(), eqServer()
	a1Shuf := shuffler.New(shuffler.Config{BatchSize: eqBatch, Threshold: eqThr}, a1Srv, rng.New(6))
	a2Shuf := shuffler.New(shuffler.Config{BatchSize: eqBatch, Threshold: eqThr}, a2Srv, rng.New(7))
	a1 := httptest.NewServer(httpapi.NewNodeHandlerOpts(a1Shuf, a1Srv, httpapi.NodeOptions{
		Metrics: metrics.NewRegistry(),
		Role:    string(topology.RoleAnalyzer),
		Peer:    &httpapi.PeerOptions{Origin: "analyzer-1", Epoch: 1, Export: a1Srv.ExportState},
	}))
	defer a1.Close()
	a2 := httptest.NewServer(httpapi.NewNodeHandlerOpts(a2Shuf, a2Srv, httpapi.NodeOptions{
		Metrics: metrics.NewRegistry(),
		Role:    string(topology.RoleAnalyzer),
		Peer:    &httpapi.PeerOptions{Origin: "analyzer-2", Epoch: 2, Export: a2Srv.ExportState},
	}))
	defer a2.Close()

	// ...fed by two relays, one per partition, each forwarding to its own
	// analyzer.
	for i, tc := range []struct {
		origin     string
		downstream string
		part       [][]transport.Tuple
		seed       uint64
	}{
		{"relay-1", a1.URL, partA, 8},
		{"relay-2", a2.URL, partB, 9},
	} {
		fwd, err := topology.NewForwarder(tc.downstream, topology.ForwarderOptions{
			Origin: tc.origin, RetryBase: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		relayShuf := shuffler.New(shuffler.Config{BatchSize: eqBatch, Threshold: eqThr}, fwd, rng.New(10+uint64(i)))
		relay := httptest.NewServer(httpapi.NewRelayHandler(relayShuf, fwd, httpapi.RelayOptions{
			Shapes: httpapi.ModelShapes{K: eqK, Arms: eqArms, D: eqD},
		}))
		defer relay.Close()
		submit(t, relay.URL, tc.part)
		if st := fwd.Stats(); st.Dropped != 0 {
			t.Fatalf("%s dropped %d batches", tc.origin, st.Dropped)
		}
	}

	// Anti-entropy: drive one deterministic digest round in each direction
	// (the daemonized loop does exactly this on a timer).
	for _, p := range []struct {
		origin string
		into   *server.Server
		from   string
	}{
		{"analyzer-1", a1Srv, a2.URL},
		{"analyzer-2", a2Srv, a1.URL},
	} {
		peering := newPuller(t, p.into, p.origin, "", p.from)
		peering.DigestSync()
		if st := pullStatus(t, peering); st.PullErrors != 0 || st.Pulls != 1 || st.Fetched != 1 {
			t.Fatalf("%s <- %s digest round = %+v", p.origin, p.from, st)
		}
	}

	// Every analyzer now serves the single-node model, byte for byte.
	want := fetchModel(t, single.URL)
	if got := fetchModel(t, a1.URL); got != want {
		t.Errorf("analyzer-1 model diverged from single node:\n got %s\nwant %s", got, want)
	}
	if got := fetchModel(t, a2.URL); got != want {
		t.Errorf("analyzer-2 model diverged from single node:\n got %s\nwant %s", got, want)
	}

	// Non-vacuity: the fleet really did split the work.
	if n := a1Srv.Stats().TuplesIngested; n == 0 || n == 6*eqBatch+6*eqBatch {
		t.Fatalf("analyzer-1 locally ingested %d tuples; the partition did not split", n)
	}
	ma, _, rb, _ := a1Srv.PeerCounters()
	if ma == 0 || rb == 0 {
		t.Fatalf("equivalence was vacuous: merges=%d relay batches=%d", ma, rb)
	}
}

// A relay crash-restart resuming its WAL tail under a FRESH epoch is the
// documented at-least-once gap: the analyzer cannot distinguish the replay
// from new data. This test pins the SAFE variant — same epoch — where the
// guard does deduplicate, so the gap stays a relay-restart property and
// never a steady-state one.
func TestRelayRetransmitSameEpochIsDeduplicated(t *testing.T) {
	aSrv := eqServer()
	aShuf := shuffler.New(shuffler.Config{BatchSize: eqBatch, Threshold: 0}, aSrv, rng.New(6))
	a := httptest.NewServer(httpapi.NewNodeHandlerOpts(aShuf, aSrv, httpapi.NodeOptions{
		Role: string(topology.RoleAnalyzer),
		Peer: &httpapi.PeerOptions{Origin: "analyzer-1"},
	}))
	defer a.Close()

	batches := eqBatches(3, 5)
	deliverAll := func() {
		fwd, err := topology.NewForwarder(a.URL, topology.ForwarderOptions{
			Origin: "relay-1", Epoch: 99, RetryBase: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			fwd.Deliver(b)
		}
	}
	deliverAll()
	want := fetchModel(t, a.URL)
	deliverAll() // the "restarted relay re-forwards its whole log" case
	if got := fetchModel(t, a.URL); got != want {
		t.Fatal("re-forwarded batches changed the model: duplicate guard failed")
	}
	_, _, rb, rd := aSrv.PeerCounters()
	if rb != 3 || rd != 3 {
		t.Fatalf("relay counters = applied %d duplicates %d, want 3/3", rb, rd)
	}
}
