// Analyzer peering: pull-based anti-entropy between sibling analyzers,
// the digest round.
//
// On every interval, each analyzer asks every peer it lists for a digest —
// the per-origin (epoch, seq) high-water vector of everything the peer can
// serve — compares it against what it already holds, and fetches only the
// missing or newer contributions from /peer/contrib. A contribution is the
// full merged export of one analyzer's own shards (what it ingested itself
// — relay batches and direct reports — never what it learned from peers),
// tagged (origin, epoch, seq). The puller stores at most one contribution
// per origin and replaces it only when a newer (epoch, seq) arrives, in
// (epoch, seq) order.
// Replacement is what makes the protocol idempotent and order-independent:
// fetching the same contribution twice, or fetching contributions out of
// order, converges to the same stored state with no double counting and no
// floating-point subtraction anywhere.
//
// Digests also list the peer's STORED third-party contributions, so
// healing is transitive: an analyzer that can reach only one sibling still
// converges on the whole fleet's state through it. And because the puller
// drives every exchange, an analyzer that was partitioned away catches up
// on its own schedule — it never waits for a sibling to notice it.
package topology

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"p2b/internal/server"
)

// MaxPeerBodyBytes caps what a puller reads from one digest or contrib
// response — the same bound an analyzer puts on one inbound relay batch.
// A larger body fails the round instead of growing the puller's memory
// without limit.
const MaxPeerBodyBytes = 32 << 20

// PeerUpdate is the JSON body of GET /peer/contrib: one analyzer's local
// contribution to the fleet model.
type PeerUpdate struct {
	// Origin names the contributing analyzer's stream.
	Origin string `json:"origin"`
	// Epoch is the contributor's boot nonce; sequence numbers reset with it.
	Epoch uint64 `json:"epoch"`
	// Seq is the contributor's local version when the state was exported.
	// A puller holding a newer epoch, or (epoch, seq') with seq' >= seq,
	// ignores the update as stale.
	Seq uint64 `json:"seq"`
	// State is the contributor's merged local accumulator export — the
	// same additive sufficient statistics a checkpoint stores.
	State *server.PersistedState `json:"state"`
}

// Digest is the body of GET /peer/digest: the per-origin (epoch, seq)
// high-water vector of every contribution the serving analyzer can hand
// out on /peer/contrib — its own live state plus the sibling
// contributions it has stored.
type Digest struct {
	Entries []DigestEntry `json:"entries"`
}

// DigestEntry is one origin's advertised replication position.
type DigestEntry struct {
	Origin string `json:"origin"`
	Epoch  uint64 `json:"epoch"`
	Seq    uint64 `json:"seq"`
}

// SyncStatus is one peer's anti-entropy health as seen by the pulling
// node, reported on /healthz, /server/stats and /peer/status.
type SyncStatus struct {
	Target     string `json:"target"`               // peer base URL
	Pulls      int64  `json:"pulls"`                // completed digest rounds against this peer
	PullErrors int64  `json:"pull_errors"`          // digest rounds that failed (fetch or apply)
	Fetched    int64  `json:"fetched"`              // contributions fetched and applied
	LastError  string `json:"last_error,omitempty"` // most recent failure, cleared by a clean round
	// LastSyncUnixNano is when the last clean round completed (0 = never).
	// Readers derive peer-merge lag from it.
	LastSyncUnixNano int64 `json:"last_sync_unix_nano"`
}

// PeeringOptions configures an analyzer's anti-entropy loop.
type PeeringOptions struct {
	// Origin names this analyzer's contribution stream; a peer's copy of
	// it is never fetched back. Required.
	Origin string
	// Peers are the base URLs of the sibling analyzers this node pulls
	// from. Required (non-empty).
	Peers []string
	// Interval is the pull period. Convergence lag between analyzers is
	// bounded by roughly one interval per hop plus transfer time.
	// Required (> 0).
	Interval time.Duration
	// Token, when non-empty, authenticates pulls as a bearer token.
	Token string
	// Server is the analyzer the fetched contributions land in: each round
	// diffs peer digests against its stored contributions and applies
	// fetches through MergePeerState. Required.
	Server *server.Server
	// Client overrides the HTTP client (tests).
	Client *http.Client
	// Logf receives pull failures. Nil discards them.
	Logf func(format string, args ...any)
}

// Peering runs the anti-entropy loop of one analyzer.
type Peering struct {
	opts   PeeringOptions
	client *http.Client

	mu     sync.Mutex
	states map[string]*SyncStatus // keyed by peer URL

	stop chan struct{}
	done chan struct{}
}

// NewPeering validates opts and returns a peering loop; call Start to run
// it. DigestSync (one round) can also be driven manually, which is what
// deterministic tests do.
func NewPeering(opts PeeringOptions) (*Peering, error) {
	if opts.Origin == "" {
		return nil, fmt.Errorf("topology: peering needs an origin name")
	}
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("topology: peering needs at least one peer URL")
	}
	if opts.Interval <= 0 {
		return nil, fmt.Errorf("topology: peering needs a positive interval, got %v", opts.Interval)
	}
	if opts.Server == nil {
		return nil, fmt.Errorf("topology: peering needs a server to merge into")
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	p := &Peering{
		opts:   opts,
		client: client,
		states: make(map[string]*SyncStatus, len(opts.Peers)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for _, peer := range opts.Peers {
		p.states[peer] = &SyncStatus{Target: peer}
	}
	return p, nil
}

// Start launches the periodic loop: one digest round every Interval. Stop
// it with Close.
func (p *Peering) Start() {
	go func() {
		defer close(p.done)
		tick := time.NewTicker(p.opts.Interval)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.DigestSync()
			}
		}
	}()
}

// Close stops the loop after finishing any in-flight round.
func (p *Peering) Close() {
	select {
	case <-p.stop:
		return
	default:
	}
	close(p.stop)
	<-p.done
}

// DigestSync runs one pull round: fetch every peer's digest, diff it
// against the positions this node already holds, and fetch + apply only
// the missing or newer contributions. Safe to call concurrently with the
// background loop (rounds serialize on the internal mutex).
func (p *Peering) DigestSync() {
	p.mu.Lock()
	defer p.mu.Unlock()
	// One holdings snapshot serves the whole round; applied fetches update
	// it so a contribution available from several peers is fetched once.
	held := make(map[string]server.PeerSeq)
	for _, c := range p.opts.Server.PeerStatus().Contributions {
		held[c.Origin] = server.PeerSeq{Epoch: c.Epoch, Seq: c.Seq}
	}
	for _, peer := range p.opts.Peers {
		st := p.states[peer]
		if err := p.pull(peer, st, held); err != nil {
			st.PullErrors++
			st.LastError = err.Error()
			if p.opts.Logf != nil {
				p.opts.Logf("topology: digest round against %s: %v", peer, err)
			}
			continue
		}
		st.Pulls++
		st.LastError = ""
		st.LastSyncUnixNano = wallClock().UnixNano()
	}
}

// pull runs one peer's share of a round and returns the last failure. A
// failed contrib fetch does not stop the others: each origin heals
// independently.
func (p *Peering) pull(peer string, st *SyncStatus, held map[string]server.PeerSeq) error {
	var digest Digest
	if err := p.getJSON(peer+"/peer/digest", &digest); err != nil {
		return err
	}
	var failed error
	for _, e := range digest.Entries {
		if e.Origin == p.opts.Origin {
			// Never fetch our own contribution back: local state is
			// authoritative for it, and a peer's stored copy is at best an
			// older echo.
			continue
		}
		if pos, ok := held[e.Origin]; ok && pos.Supersedes(e.Epoch, e.Seq) {
			// Held at this position or newer — including a newer epoch
			// than a third party's pre-restart copy of the origin.
			continue
		}
		var upd PeerUpdate
		err := p.getJSON(peer+"/peer/contrib?origin="+url.QueryEscape(e.Origin), &upd)
		if err == nil && upd.Origin != e.Origin {
			err = fmt.Errorf("topology: peer %s served origin %q for a %q contribution fetch", peer, upd.Origin, e.Origin)
		}
		var applied bool
		if err == nil {
			applied, err = p.opts.Server.MergePeerState(upd.Origin, upd.Epoch, upd.Seq, upd.State)
		}
		if err != nil {
			failed = fmt.Errorf("contribution %q: %w", e.Origin, err)
			continue
		}
		if applied {
			st.Fetched++
			held[e.Origin] = server.PeerSeq{Epoch: upd.Epoch, Seq: upd.Seq}
		}
		// applied=false means the peer answered with a position this node
		// already supersedes, so held stays as it is.
	}
	return failed
}

// getJSON is an authenticated GET + JSON decode against a peer route,
// reading at most MaxPeerBodyBytes of the body.
func (p *Peering) getJSON(u string, v any) error {
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("topology: building peer request: %w", err)
	}
	if p.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+p.opts.Token)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: status %d: %s", u, resp.StatusCode, msg)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxPeerBodyBytes+1))
	if err != nil {
		return fmt.Errorf("%s: reading body: %w", u, err)
	}
	if len(body) > MaxPeerBodyBytes {
		return fmt.Errorf("%s: body exceeds the %d-byte peer payload cap", u, MaxPeerBodyBytes)
	}
	return json.Unmarshal(body, v)
}

// Status returns the per-peer anti-entropy status, sorted by target URL.
func (p *Peering) Status() []SyncStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SyncStatus, 0, len(p.states))
	for _, st := range p.states {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target < out[j].Target })
	return out
}
