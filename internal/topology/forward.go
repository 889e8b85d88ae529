// The relay's downstream half: a shuffler.Sink that forwards finished
// privacy batches to an analyzer over the existing P2B1 wire.
package topology

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"p2b/internal/transport"
)

// Peer protocol headers. Every relay batch names its origin stream
// (relay name), the origin's boot epoch and a per-epoch sequence number,
// so the receiving analyzer can drop duplicates from retries or a relay's
// WAL-tail re-forward without ever double-counting a tuple.
const (
	OriginHeader = "X-P2b-Peer-Origin"
	EpochHeader  = "X-P2b-Peer-Epoch"
	SeqHeader    = "X-P2b-Peer-Seq"
)

// ForwardStats counts a Forwarder's downstream traffic.
type ForwardStats struct {
	Batches    int64  `json:"batches"`    // batches delivered (including duplicate-acked)
	Tuples     int64  `json:"tuples"`     // tuples inside delivered batches
	Duplicates int64  `json:"duplicates"` // batches the analyzer acked as already applied
	Retries    int64  `json:"retries"`    // send attempts beyond the first
	Dropped    int64  `json:"dropped"`    // batches abandoned after the retry budget
	LastError  string `json:"last_error,omitempty"`
}

// ForwarderOptions configures a Forwarder.
type ForwarderOptions struct {
	// Origin names this relay's batch stream; the analyzer keys its
	// duplicate detection on it. Required.
	Origin string
	// Epoch qualifies sequence numbers across relay restarts. Zero selects
	// a fresh boot nonce.
	Epoch uint64
	// Token, when non-empty, is sent as a bearer token; the analyzer
	// refuses unauthenticated peer traffic when it was started with one.
	Token string
	// MaxRetries bounds send attempts per batch beyond the first
	// (default 10). The shuffler's delivering goroutine blocks during
	// retries — backpressure into admission is the desired behavior when
	// the downstream is struggling.
	MaxRetries int
	// RetryBase is the first backoff delay, doubling per attempt
	// (default 100ms).
	RetryBase time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
	// Logf receives forward failures. Nil discards them.
	Logf func(format string, args ...any)
}

// Forwarder implements shuffler.Sink for a relay: every finished privacy
// batch is encoded with the P2B1 codec and POSTed to the downstream
// analyzer's /peer/ingest route, tagged (origin, epoch, seq).
//
// Deliveries are serialized under an internal mutex even though the
// shuffler may call Deliver from concurrent request goroutines: sequence
// numbers must be assigned in send order for the analyzer's duplicate
// guard to be meaningful. Sends are synchronous — when the relay acks a
// flush, the batches it cut have already been acked downstream. The
// counters sit behind their own short-held lock, so Stats answers while a
// delivery sleeps through its retry ladder.
type Forwarder struct {
	downstream string
	opts       ForwarderOptions
	client     *http.Client

	mu    sync.Mutex
	epoch uint64
	seq   uint64
	sync  func() error // pre-send durability hook, see SetSync
	enc   []byte

	statsMu sync.Mutex
	stats   ForwardStats
}

// NewForwarder returns a forwarder delivering to the analyzer at
// downstream (base URL, no path).
func NewForwarder(downstream string, opts ForwarderOptions) (*Forwarder, error) {
	if downstream == "" {
		return nil, fmt.Errorf("topology: forwarder needs a downstream analyzer URL")
	}
	if opts.Origin == "" {
		return nil, fmt.Errorf("topology: forwarder needs an origin name")
	}
	if opts.Epoch == 0 {
		opts.Epoch = BootEpoch()
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 10
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 100 * time.Millisecond
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	return &Forwarder{downstream: downstream, opts: opts, client: client, epoch: opts.Epoch}, nil
}

// Epoch returns the epoch sequence numbers are currently stamped with:
// the boot nonce, unless a recovered cursor replaced it.
func (f *Forwarder) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Cursor returns the forwarding position: the stamping epoch and the last
// assigned sequence number. It is what a durable relay checkpoints.
func (f *Forwarder) Cursor() (epoch, seq uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch, f.seq
}

// SetCursor overwrites the forwarding position. Recovery calls it —
// before any batch is (re-)forwarded — so a restarted relay resumes its
// persisted (epoch, seq) stream instead of minting a fresh epoch the
// downstream duplicate guard cannot match retransmits against.
func (f *Forwarder) SetCursor(epoch, seq uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.epoch = epoch
	f.seq = seq
}

// SetSync installs a durability hook run before each batch's first send
// attempt — in a durable relay, the WAL sync that makes the records
// backing the batch durable. Without it, a batched-fsync relay could
// forward a batch whose WAL records die with a crash: replay would then
// under-derive the sequence and a LATER batch would reuse this batch's
// (epoch, seq) with different content, which the analyzer would wrongly
// drop as a duplicate. Install before traffic; a nil hook is a no-op.
func (f *Forwarder) SetSync(sync func() error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sync = sync
}

// Downstream returns the analyzer base URL this forwarder delivers to.
func (f *Forwarder) Downstream() string { return f.downstream }

// Stats returns a snapshot of the forward counters.
func (f *Forwarder) Stats() ForwardStats {
	f.statsMu.Lock()
	defer f.statsMu.Unlock()
	return f.stats
}

// count applies one counter update under the stats lock.
func (f *Forwarder) count(update func(*ForwardStats)) {
	f.statsMu.Lock()
	defer f.statsMu.Unlock()
	update(&f.stats)
}

// drop counts a batch abandoned with err.
func (f *Forwarder) drop(err error) {
	f.count(func(st *ForwardStats) {
		st.Dropped++
		st.LastError = err.Error()
	})
}

// Deliver implements shuffler.Sink: the batch is sent downstream before
// the call returns. The slice is not retained. A batch that exhausts its
// retry budget is dropped and counted — the alternative, buffering
// unbounded batches inside the relay, would turn a downstream outage into
// a relay OOM; operators alert on the dropped counter instead.
func (f *Forwarder) Deliver(batch []transport.Tuple) {
	if len(batch) == 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.sync != nil {
		if err := f.sync(); err != nil {
			// The records backing this batch may not be durable; sending it
			// anyway risks a later batch reusing its (epoch, seq) after a
			// crash-replay under-derives the sequence. Refuse the batch the
			// same way an exhausted retry budget would.
			f.drop(err)
			if f.opts.Logf != nil {
				f.opts.Logf("topology: dropping batch: durability sync failed: %v", err)
			}
			return
		}
	}
	f.seq++
	f.enc = transport.AppendMagic(f.enc[:0])
	e := transport.Envelope{}
	for _, t := range batch {
		e.Tuple = t
		f.enc = e.AppendFrame(f.enc)
	}
	applied, err := f.sendLocked(f.seq, f.enc, len(batch))
	if err != nil {
		f.drop(err)
		if f.opts.Logf != nil {
			f.opts.Logf("topology: dropping batch seq %d after retries: %v", f.seq, err)
		}
		return
	}
	f.count(func(st *ForwardStats) {
		st.Batches++
		st.Tuples += int64(len(batch))
		if !applied {
			st.Duplicates++
		}
	})
}

// sendLocked posts one encoded batch, retrying transient failures with
// doubling backoff. It returns whether the analyzer applied the batch
// (false = duplicate, which is success: the data is already in).
func (f *Forwarder) sendLocked(seq uint64, body []byte, n int) (bool, error) {
	url := f.downstream + "/peer/ingest"
	delay := f.opts.RetryBase
	var lastErr error
	for attempt := 0; attempt <= f.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			f.count(func(st *ForwardStats) { st.Retries++ })
			time.Sleep(delay)
			if delay < 10*time.Second {
				delay *= 2
			}
		}
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return false, fmt.Errorf("topology: building peer request: %w", err)
		}
		req.Header.Set("Content-Type", transport.ContentTypeBinary)
		req.Header.Set(OriginHeader, f.opts.Origin)
		req.Header.Set(EpochHeader, strconv.FormatUint(f.epoch, 10))
		req.Header.Set(SeqHeader, strconv.FormatUint(seq, 10))
		if f.opts.Token != "" {
			req.Header.Set("Authorization", "Bearer "+f.opts.Token)
		}
		resp, err := f.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		applied, err := decodePeerAck(resp)
		if err != nil {
			lastErr = err
			if !transport.RetryableStatus(resp.StatusCode) {
				return false, err
			}
			continue
		}
		return applied, nil
	}
	return false, fmt.Errorf("topology: forwarding batch of %d to %s: %w", n, url, lastErr)
}

// PeerAck is the JSON response of /peer/ingest: whether the batch changed
// analyzer state (false = duplicate, which the sender treats as success).
type PeerAck struct {
	Applied bool `json:"applied"`
}

func decodePeerAck(resp *http.Response) (bool, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("topology: peer answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var ack PeerAck
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&ack); err != nil {
		return false, fmt.Errorf("topology: decoding peer ack: %w", err)
	}
	return ack.Applied, nil
}
