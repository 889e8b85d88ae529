// The digest round, driven deterministically: an analyzer converges on the
// fleet state by pulling alone — fetching peer digests, diffing them
// against what it holds, and retrieving only the missing contributions.
// Exactness conditions are the equivalence test's, so convergence is
// asserted byte for byte.
package topology_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2b/internal/httpapi"
	"p2b/internal/rng"
	"p2b/internal/server"
	"p2b/internal/shuffler"
	"p2b/internal/topology"
	"p2b/internal/transport"
)

// digestNode is one analyzer: a server with its own shuffler and the full
// peer HTTP surface, including the digest and contrib routes.
type digestNode struct {
	srv  *server.Server
	shuf *shuffler.Shuffler
	url  string
}

func newDigestNode(t *testing.T, origin string, epoch, seed uint64, token string) *digestNode {
	t.Helper()
	srv := eqServer()
	shuf := shuffler.New(shuffler.Config{BatchSize: eqBatch, Threshold: eqThr}, srv, rng.New(seed))
	ts := newTestServer(t, httpapi.NewNodeHandlerOpts(shuf, srv, httpapi.NodeOptions{
		Role: string(topology.RoleAnalyzer),
		Peer: &httpapi.PeerOptions{
			Origin: origin,
			Epoch:  epoch,
			Export: srv.ExportState,
			Token:  token,
		},
	}))
	return &digestNode{srv: srv, shuf: shuf, url: ts.URL}
}

func (n *digestNode) ingest(batches [][]transport.Tuple) {
	for _, b := range batches {
		n.shuf.SubmitTuples(b)
	}
}

// newPuller builds the peering of the analyzer named origin, merging into
// srv the way p2bnode wires it. The loop is never started; tests drive
// DigestSync.
func newPuller(t *testing.T, srv *server.Server, origin, token string, peers ...string) *topology.Peering {
	t.Helper()
	p, err := topology.NewPeering(topology.PeeringOptions{
		Origin:   origin,
		Peers:    peers,
		Interval: time.Hour,
		Token:    token,
		Server:   srv,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pullStatus returns the single-peer SyncStatus of a one-peer puller.
func pullStatus(t *testing.T, p *topology.Peering) topology.SyncStatus {
	t.Helper()
	sts := p.Status()
	if len(sts) != 1 {
		t.Fatalf("puller tracks %d peers, want 1", len(sts))
	}
	return sts[0]
}

func TestPartitionedAnalyzerConvergesViaDigestAlone(t *testing.T) {
	batches := eqBatches(6, 42)

	// Analyzer A holds data and pulls from nobody: it has no peering at
	// all. Everything B learns, B must pull.
	a := newDigestNode(t, "analyzer-a", 7, 10, "")
	a.ingest(batches[:4])

	b := newDigestNode(t, "analyzer-b", 8, 11, "")
	puller := newPuller(t, b.srv, "analyzer-b", "", a.url)

	puller.DigestSync()
	if got, want := fetchModel(t, b.url), fetchModel(t, a.url); got != want {
		t.Errorf("after one digest round, B's model diverged from A's:\n got %s\nwant %s", got, want)
	}
	if st := pullStatus(t, puller); st.Pulls != 1 || st.Fetched != 1 || st.PullErrors != 0 {
		t.Fatalf("pull status after first round = %+v, want 1 pull fetching 1 contribution", st)
	}
	if applied, rejected, _, _ := b.srv.PeerCounters(); applied != 1 || rejected != 0 {
		t.Fatalf("B merge counters = applied %d rejected %d, want exactly one applied", applied, rejected)
	}

	// An idle round fetches nothing: A's digest position is covered.
	puller.DigestSync()
	if st := pullStatus(t, puller); st.Pulls != 2 || st.Fetched != 1 {
		t.Fatalf("idle round status = %+v, want a completed pull with no new fetches", st)
	}

	// A moves on; the next round picks up exactly the delta contribution.
	a.ingest(batches[4:])
	puller.DigestSync()
	if got, want := fetchModel(t, b.url), fetchModel(t, a.url); got != want {
		t.Errorf("after A advanced, B's model diverged:\n got %s\nwant %s", got, want)
	}
	if st := pullStatus(t, puller); st.Fetched != 2 || st.PullErrors != 0 {
		t.Fatalf("status after A advanced = %+v, want a second fetched contribution", st)
	}
}

// The background loop runs the same round on every Interval tick, and
// Close waits for it to exit.
func TestPeeringLoopConvergesOnItsOwn(t *testing.T) {
	a := newDigestNode(t, "analyzer-a", 7, 10, "")
	a.ingest(eqBatches(3, 21))
	b := newDigestNode(t, "analyzer-b", 8, 11, "")
	p, err := topology.NewPeering(topology.PeeringOptions{
		Origin:   "analyzer-b",
		Peers:    []string{a.url},
		Interval: 5 * time.Millisecond,
		Server:   b.srv,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	deadline := time.Now().Add(5 * time.Second)
	for pullStatus(t, p).Fetched == 0 {
		if time.Now().After(deadline) {
			p.Close()
			t.Fatalf("loop never fetched A's contribution: %+v", pullStatus(t, p))
		}
		time.Sleep(5 * time.Millisecond)
	}
	p.Close()
	p.Close() // idempotent
	if got, want := fetchModel(t, b.url), fetchModel(t, a.url); got != want {
		t.Errorf("looping puller diverged from A:\n got %s\nwant %s", got, want)
	}
}

// Digests list STORED third-party contributions too, so healing is
// transitive: C reaches only B, yet converges on A's data through B's
// stored copy — byte-identical to a single node that saw everything.
func TestDigestRoundHealsTransitively(t *testing.T) {
	batches := eqBatches(8, 99)
	partA, partB := batches[:5], batches[5:]

	single := newDigestNode(t, "single", 1, 5, "")
	single.ingest(partA)
	single.ingest(partB)

	a := newDigestNode(t, "analyzer-a", 7, 10, "")
	a.ingest(partA)
	b := newDigestNode(t, "analyzer-b", 8, 11, "")
	b.ingest(partB)

	// B pulls from A, then C (which holds nothing and can reach only B)
	// pulls from B.
	newPuller(t, b.srv, "analyzer-b", "", a.url).DigestSync()
	c := newDigestNode(t, "analyzer-c", 9, 12, "")
	cPuller := newPuller(t, c.srv, "analyzer-c", "", b.url)
	cPuller.DigestSync()

	if got, want := fetchModel(t, c.url), fetchModel(t, single.url); got != want {
		t.Errorf("C's model diverged from the single node:\n got %s\nwant %s", got, want)
	}
	// Non-vacuity: C fetched both B's own contribution and A's stored one.
	if st := pullStatus(t, cPuller); st.Fetched != 2 || st.PullErrors != 0 {
		t.Fatalf("C pull status = %+v, want 2 fetched contributions (B's own and A's gossiped)", st)
	}
	if applied, _, _, _ := c.srv.PeerCounters(); applied != 2 {
		t.Fatalf("C applied %d merges, want 2", applied)
	}
}

// A full mesh of three analyzers where B and C each list A first. After A
// restarts under a higher epoch, B pulls A's new copy and then sees C's
// digest still advertising A's pre-restart copy (and C the same from B).
// Epochs are ordered, so the stale copy is never fetched back over the new
// one: within two rounds both hold A's new epoch and serve A's model.
func TestDigestRoundKeepsRestartedOriginsNewerEpoch(t *testing.T) {
	batches := eqBatches(10, 77)
	partA, partB, partC, partA2 := batches[:3], batches[3:5], batches[5:7], batches[7:]

	single := newDigestNode(t, "single", 1, 5, "")
	for _, part := range [][][]transport.Tuple{partA, partB, partC, partA2} {
		single.ingest(part)
	}

	a := newDigestNode(t, "analyzer-a", 7, 10, "")
	a.ingest(partA)
	b := newDigestNode(t, "analyzer-b", 8, 11, "")
	b.ingest(partB)
	c := newDigestNode(t, "analyzer-c", 9, 12, "")
	c.ingest(partC)
	round := func(pullers ...*topology.Peering) {
		for i := 0; i < 2; i++ {
			for _, p := range pullers {
				p.DigestSync()
			}
		}
	}
	round(
		newPuller(t, b.srv, "analyzer-b", "", a.url, c.url),
		newPuller(t, c.srv, "analyzer-c", "", a.url, b.url),
	)
	for name, srv := range map[string]*server.Server{"B": b.srv, "C": c.srv} {
		if pos, _, ok := srv.PeerContribution("analyzer-a"); !ok || pos.Epoch != 7 {
			t.Fatalf("%s holds A at %+v (ok=%v) before the restart, want epoch 7", name, pos, ok)
		}
	}

	// A restarts under a higher epoch: it recovers what it had ingested
	// (a durable analyzer's checkpoint) and ingests more.
	a2 := newDigestNode(t, "analyzer-a", 70, 10, "")
	a2.ingest(partA)
	a2.ingest(partA2)
	round(
		newPuller(t, b.srv, "analyzer-b", "", a2.url, c.url),
		newPuller(t, c.srv, "analyzer-c", "", a2.url, b.url),
		newPuller(t, a2.srv, "analyzer-a", "", b.url, c.url),
	)

	want := fetchModel(t, single.url)
	if got := fetchModel(t, a2.url); got != want {
		t.Errorf("restarted A diverged from the single node:\n got %s\nwant %s", got, want)
	}
	for name, n := range map[string]*digestNode{"B": b, "C": c} {
		if pos, _, ok := n.srv.PeerContribution("analyzer-a"); !ok || pos.Epoch != 70 {
			t.Errorf("%s holds A at %+v (ok=%v) after the restart, want epoch 70", name, pos, ok)
		}
		if got := fetchModel(t, n.url); got != want {
			t.Errorf("%s diverged from the single node after A's restart:\n got %s\nwant %s", name, got, want)
		}
	}
}

// The digest and contrib routes hand out model state, so they demand the
// same bearer token the write routes do.
func TestDigestRoutesRequireToken(t *testing.T) {
	a := newDigestNode(t, "analyzer-a", 7, 10, "hunter2")
	a.ingest(eqBatches(2, 3))
	b := newDigestNode(t, "analyzer-b", 8, 11, "")

	unauthed := newPuller(t, b.srv, "analyzer-b", "", a.url)
	unauthed.DigestSync()
	if st := pullStatus(t, unauthed); st.PullErrors != 1 || st.Fetched != 0 {
		t.Fatalf("tokenless pull against a token-guarded peer = %+v, want one rejected round", st)
	}

	authed := newPuller(t, b.srv, "analyzer-b", "hunter2", a.url)
	authed.DigestSync()
	if st := pullStatus(t, authed); st.Pulls != 1 || st.Fetched != 1 {
		t.Fatalf("authenticated pull = %+v, want one fetched contribution", st)
	}
	if got, want := fetchModel(t, b.url), fetchModel(t, a.url); got != want {
		t.Error("authenticated digest round did not converge B on A's model")
	}
}

// fakePeer is a hand-rolled peer surface: it advertises digest and answers
// every contrib fetch with serve, counting the fetches.
func fakePeer(t *testing.T, digest []topology.DigestEntry, serve topology.PeerUpdate) (string, *atomic.Int64) {
	t.Helper()
	var fetches atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /peer/digest", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(topology.Digest{Entries: digest})
	})
	mux.HandleFunc("GET /peer/contrib", func(w http.ResponseWriter, r *http.Request) {
		fetches.Add(1)
		_ = json.NewEncoder(w).Encode(serve)
	})
	return newTestServer(t, mux).URL, &fetches
}

// The pull path guards this node's own origin: local state is
// authoritative for it, so a peer can neither make the puller fetch it nor
// slip it in under another origin's name.
func TestDigestRoundSelfOriginGuard(t *testing.T) {
	remote := eqServer()
	remote.Deliver(eqBatches(1, 3)[0])
	state := remote.ExportState()
	for _, tc := range []struct {
		name        string
		digest      []topology.DigestEntry
		serve       topology.PeerUpdate
		wantFetches int64
		wantErrors  int64
	}{
		{
			name:        "digest lists the puller's own origin",
			digest:      []topology.DigestEntry{{Origin: "analyzer-b", Epoch: 1, Seq: 9}},
			serve:       topology.PeerUpdate{Origin: "analyzer-b", Epoch: 1, Seq: 9, State: state},
			wantFetches: 0,
			wantErrors:  0,
		},
		{
			name:        "peer serves another origin than requested",
			digest:      []topology.DigestEntry{{Origin: "analyzer-x", Epoch: 1, Seq: 9}},
			serve:       topology.PeerUpdate{Origin: "analyzer-y", Epoch: 1, Seq: 9, State: state},
			wantFetches: 1,
			wantErrors:  1,
		},
		{
			name:        "peer serves the puller's own origin as another's",
			digest:      []topology.DigestEntry{{Origin: "analyzer-x", Epoch: 1, Seq: 9}},
			serve:       topology.PeerUpdate{Origin: "analyzer-b", Epoch: 1, Seq: 9, State: state},
			wantFetches: 1,
			wantErrors:  1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url, fetches := fakePeer(t, tc.digest, tc.serve)
			b := eqServer()
			puller := newPuller(t, b, "analyzer-b", "", url)
			puller.DigestSync()
			if got := fetches.Load(); got != tc.wantFetches {
				t.Errorf("contrib fetches = %d, want %d", got, tc.wantFetches)
			}
			if st := pullStatus(t, puller); st.PullErrors != tc.wantErrors || st.Pulls != 1-tc.wantErrors || st.Fetched != 0 {
				t.Errorf("pull status = %+v, want %d pull errors and nothing fetched", st, tc.wantErrors)
			}
			if ps := b.PeerStatus(); ps.MergesApplied != 0 || len(ps.Contributions) != 0 {
				t.Errorf("puller stored peer state %+v, want none", ps)
			}
		})
	}
}

// A peer body past MaxPeerBodyBytes fails the round instead of being read
// into memory without bound.
func TestDigestRoundRejectsOversizedBody(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /peer/digest", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(topology.Digest{Entries: []topology.DigestEntry{{Origin: "analyzer-a", Epoch: 1, Seq: 1}}})
	})
	mux.HandleFunc("GET /peer/contrib", func(w http.ResponseWriter, r *http.Request) {
		// Syntactically valid JSON padded past the cap, streamed in chunks
		// so the serving side stays small.
		_, _ = w.Write([]byte(`{"origin":"analyzer-a","epoch":1,"seq":1,"state":null`))
		pad := []byte(strings.Repeat(" ", 1<<16))
		for n := 0; n <= topology.MaxPeerBodyBytes; n += len(pad) {
			if _, err := w.Write(pad); err != nil {
				return
			}
		}
		_, _ = w.Write([]byte("}"))
	})
	url := newTestServer(t, mux).URL
	b := eqServer()
	puller := newPuller(t, b, "analyzer-b", "", url)
	puller.DigestSync()
	st := pullStatus(t, puller)
	if st.PullErrors != 1 || st.Pulls != 0 || st.Fetched != 0 {
		t.Fatalf("pull status = %+v, want one failed round", st)
	}
	if !strings.Contains(st.LastError, "cap") {
		t.Fatalf("last error = %q, want the payload cap named", st.LastError)
	}
	if ps := b.PeerStatus(); ps.MergesApplied != 0 {
		t.Fatalf("oversized contribution was applied: %+v", ps)
	}
}

func TestNewPeeringRejectsBadOptions(t *testing.T) {
	srv := eqServer()
	good := topology.PeeringOptions{Origin: "a", Peers: []string{"http://b"}, Interval: time.Second, Server: srv}
	for name, mutate := range map[string]func(*topology.PeeringOptions){
		"no origin":     func(o *topology.PeeringOptions) { o.Origin = "" },
		"no peers":      func(o *topology.PeeringOptions) { o.Peers = nil },
		"zero interval": func(o *topology.PeeringOptions) { o.Interval = 0 },
		"no server":     func(o *topology.PeeringOptions) { o.Server = nil },
	} {
		opts := good
		mutate(&opts)
		if _, err := topology.NewPeering(opts); err == nil {
			t.Errorf("%s: NewPeering accepted %+v", name, opts)
		}
	}
	if _, err := topology.NewPeering(good); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

// A digest round against a peer that does not answer must not hold the
// status lock: /healthz, /server/stats, /peer/status and the
// p2b_peer_sync_* collectors all read Status, and one slow peer would
// otherwise stall every one of them for the client timeout.
func TestDigestRoundDoesNotStallStatus(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	peer := newTestServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
		http.Error(w, "peer overloaded", http.StatusServiceUnavailable)
	}))
	var once sync.Once
	releasePeer := func() { once.Do(func() { close(release) }) }
	t.Cleanup(releasePeer) // before the server's Close, which waits for the handler

	puller := newPuller(t, eqServer(), "analyzer-b", "", peer.URL)
	done := make(chan struct{})
	go func() {
		defer close(done)
		puller.DigestSync()
	}()
	<-entered

	answered := make(chan []topology.SyncStatus, 1)
	go func() { answered <- puller.Status() }()
	select {
	case sts := <-answered:
		if len(sts) != 1 || sts[0].Pulls != 0 || sts[0].PullErrors != 0 {
			t.Errorf("mid-round status = %+v, want the untouched pre-round counters", sts)
		}
	case <-time.After(200 * time.Millisecond):
		t.Error("Status blocked behind an in-flight digest round")
	}

	releasePeer()
	<-done
	if st := pullStatus(t, puller); st.PullErrors != 1 || st.Pulls != 0 || st.LastError == "" {
		t.Fatalf("status after the released round = %+v, want one pull error", st)
	}
}
