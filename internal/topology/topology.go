// Package topology describes and wires the multi-node deployment of P2B:
// which processes play which role, how agents discover a relay to report
// to, how relays forward crowd-blended batches downstream, and how
// analyzers exchange model state so any of them can serve warm starts.
//
// The deployment splits the single-process p2bnode into three roles:
//
//	combined  the classic single node: shuffler + analyzer in one process
//	relay     shuffler only; finished privacy batches are forwarded over
//	          the P2B1 wire to a downstream analyzer instead of a local
//	          server
//	analyzer  analyzer only as far as agents are concerned: it accepts
//	          relay batches on /peer/ingest and pulls sibling analyzers'
//	          model state through the digest round (/peer/digest and
//	          /peer/contrib), so every analyzer converges to the
//	          fleet-wide model
//
// Discovery is a bulletin board (the registry): nodes announce themselves
// with a name, role and URL, agents fetch the board and pick a relay
// deterministically from their seed. The board is config, not consensus —
// it never sits on the data path, and a stale board costs a retry, never
// a lost report.
package topology

import (
	"encoding/json"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"time"
)

// wallClock is the package's wall-clock seam. It feeds only epoch boot
// nonces and sync telemetry timestamps — never batch content or merge
// state — and tests substitute a fake to make those reproducible. The
// registry carries its own injectable clock for TTL expiry.
var wallClock = time.Now

// BootEpoch mints a fresh boot nonce for an (epoch, seq) replication
// stream: forwarder cursors and the contribution an analyzer serves on
// /peer/digest and /peer/contrib both qualify sequence numbers with one.
func BootEpoch() uint64 {
	return uint64(wallClock().UnixNano())
}

// Role names what a node does in the fleet.
type Role string

// The three node roles. RoleCombined is the single-process default;
// RoleRelay runs only the shuffler and forwards batches downstream;
// RoleAnalyzer runs only the analyzer and accepts relay and peer traffic.
const (
	RoleCombined Role = "combined"
	RoleRelay    Role = "relay"
	RoleAnalyzer Role = "analyzer"
)

// ParseRole maps a flag or config string to a Role. The empty string is
// RoleCombined, matching a p2bnode started without -role.
func ParseRole(s string) (Role, error) {
	switch Role(strings.ToLower(strings.TrimSpace(s))) {
	case "", RoleCombined:
		return RoleCombined, nil
	case RoleRelay:
		return RoleRelay, nil
	case RoleAnalyzer:
		return RoleAnalyzer, nil
	}
	return "", fmt.Errorf("topology: unknown role %q (want %s, %s or %s)", s, RoleCombined, RoleRelay, RoleAnalyzer)
}

// Valid reports whether r is one of the three defined roles.
func (r Role) Valid() bool {
	return r == RoleCombined || r == RoleRelay || r == RoleAnalyzer
}

// AcceptsReports reports whether agents may POST reports to a node of this
// role: relays and combined nodes run a shuffler, analyzers do not.
func (r Role) AcceptsReports() bool { return r == RoleRelay || r == RoleCombined }

// ServesModel reports whether a node of this role answers GET
// /server/model: analyzers and combined nodes do, relays do not.
func (r Role) ServesModel() bool { return r == RoleAnalyzer || r == RoleCombined }

// Node is one fleet member as published on the bulletin board.
type Node struct {
	// Name uniquely identifies the node on the board; re-announcing a name
	// replaces the previous entry (that is how heartbeats refresh TTLs).
	Name string `json:"name"`
	// Role is what the node does; see the Role constants.
	Role Role `json:"role"`
	// URL is the node's base HTTP URL, e.g. "http://10.0.0.5:8080".
	URL string `json:"url"`
	// Degraded, announced by the node itself, marks it up but operating
	// in a reduced mode (e.g. report admission bypassing a failing WAL).
	// Discovery treats degraded nodes as a last resort: Alive filters
	// them out while healthy candidates exist.
	Degraded bool `json:"degraded,omitempty"`
	// HeartbeatUnixNano is when the board last heard from this node. The
	// board stamps it while serving a Document — announcing nodes never
	// set it themselves — and it stays byte-identical between heartbeats,
	// so repeated board fetches of unchanged state compare equal. Zero
	// for static seed nodes, which are operator config and do not
	// heartbeat.
	HeartbeatUnixNano int64 `json:"heartbeat_unix_nano,omitempty"`
}

// Validate checks one node entry in isolation.
func (n Node) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("topology: node has no name")
	}
	if !n.Role.Valid() {
		return fmt.Errorf("topology: node %q has invalid role %q", n.Name, n.Role)
	}
	if n.URL == "" {
		return fmt.Errorf("topology: node %q has no url", n.Name)
	}
	u, err := url.Parse(n.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("topology: node %q has unparseable url %q (want scheme://host[:port])", n.Name, n.URL)
	}
	return nil
}

// Document is the bulletin board's published topology: every live node.
// It is what GET /topology serves and what static board config files hold.
type Document struct {
	Nodes []Node `json:"nodes"`
}

// Validate checks every node and rejects duplicate names — a duplicate is
// almost always two processes fighting over one identity, and the board
// replacing one with the other silently would hide the misconfiguration.
func (d *Document) Validate() error {
	seen := make(map[string]bool, len(d.Nodes))
	for _, n := range d.Nodes {
		if err := n.Validate(); err != nil {
			return err
		}
		if seen[n.Name] {
			return fmt.Errorf("topology: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
	}
	return nil
}

// ParseDocument decodes and validates a topology document from JSON, the
// format of both the board's GET /topology response and static board
// config files. Unknown fields are rejected so a typoed key fails loudly
// instead of silently publishing an empty board.
func ParseDocument(data []byte) (*Document, error) {
	var d Document
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("topology: parsing document: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// ReportTargets returns the nodes an agent may report to, sorted by name:
// the relays when the fleet has any, otherwise the combined nodes. Relays
// win when both exist — a fleet that deploys a relay tier wants agent
// traffic on it, with combined nodes kept as analyzer-side peers.
func (d *Document) ReportTargets() []Node {
	relays := d.withRole(RoleRelay)
	if len(relays) > 0 {
		return relays
	}
	return d.withRole(RoleCombined)
}

// Analyzers returns the nodes that serve models (analyzer and combined
// roles), sorted by name.
func (d *Document) Analyzers() []Node {
	nodes := d.withRole(RoleAnalyzer)
	nodes = append(nodes, d.withRole(RoleCombined)...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	return nodes
}

func (d *Document) withRole(r Role) []Node {
	var nodes []Node
	for _, n := range d.Nodes {
		if n.Role == r {
			nodes = append(nodes, n)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	return nodes
}

// Alive filters nodes to the ones a failover should still consider:
// not self-declared degraded, and — for board-announced nodes — with a
// heartbeat younger than maxAge. Static seed nodes (heartbeat zero) have
// no liveness signal and always pass the age check; they are config, and
// dropping them would leave a static-only fleet with nothing to pick.
// If the filter would empty a non-empty candidate list, the original
// list is returned instead: a uniformly unhealthy fleet is still worth a
// delivery attempt, and the retry path handles the failures.
func Alive(nodes []Node, maxAge time.Duration, now time.Time) []Node {
	var out []Node
	cutoff := now.Add(-maxAge)
	for _, n := range nodes {
		if n.Degraded {
			continue
		}
		if maxAge > 0 && n.HeartbeatUnixNano != 0 && time.Unix(0, n.HeartbeatUnixNano).Before(cutoff) {
			continue
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nodes
	}
	return out
}

// Pick deterministically selects one node from nodes using seed: the nodes
// are considered in name order, so every agent with one seed lands on one
// node regardless of board arrival order, and a fleet with uniformly
// distributed seeds spreads uniformly across the nodes.
func Pick(nodes []Node, seed uint64) (Node, error) {
	if len(nodes) == 0 {
		return Node{}, fmt.Errorf("topology: no candidate nodes to pick from")
	}
	sorted := append([]Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	// splitmix64 finalizer: agents with consecutive seeds (the common
	// fleet-launcher pattern) must not all collapse onto seed%n biased by
	// low-bit regularity of the seed sequence.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return sorted[z%uint64(len(sorted))], nil
}
