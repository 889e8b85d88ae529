package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"p2b/agent"
	"p2b/internal/encoding"
	"p2b/internal/httpapi"
	"p2b/internal/shuffler"
	"p2b/internal/transport"
)

// Request headers the load generator and the relay-forward decorator use
// to tie server-side spans to the client request that caused them.
const (
	reqHeader    = "X-Bench-Req"
	parentHeader = "X-Bench-Parent"
)

// span is one timed call across a layer boundary. Start, End and Mark are
// nanoseconds since the tracer's origin.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"` // index of the causing span, -1 for a root
	Req    uint64 `json:"req"`    // request or device-session id shared by a request's spans
	// N is the tuple count of ingest and sink spans and the HTTP status of
	// route spans.
	N int32 `json:"n,omitempty"`
	// Mark is when an ingest span's first WAL write began (0 = none): the
	// time before it is spent waiting for the persist manager's and the
	// WAL's locks and encoding the record.
	Mark int64 `json:"mark,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory for the traced run. Server-side seams
// run on the request goroutine without a context to carry the caller's
// span, so the tracer keeps the innermost open span per goroutine.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	cur   map[uint64]int32

	walBytes, walSyncs atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16), cur: map[uint64]int32{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span with an explicit parent (client-side code, which
// knows its own nesting).
func (t *tracer) begin(name string, parent int32, req uint64) int32 {
	start := t.now()
	t.mu.Lock()
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent, Req: req})
	t.mu.Unlock()
	return idx
}

func (t *tracer) end(idx int32, n int) {
	end := t.now()
	t.mu.Lock()
	t.spans[idx].End = end
	t.spans[idx].N = int32(n)
	t.mu.Unlock()
}

// enter opens a span as a child of the goroutine's innermost open span
// (or of parent when the goroutine has none) and makes it the innermost.
func (t *tracer) enter(name string, parent int32, req uint64) (idx, prev int32, gid uint64) {
	start := t.now()
	gid = goid()
	t.mu.Lock()
	prev = -1
	if p, ok := t.cur[gid]; ok {
		prev, parent, req = p, p, t.spans[p].Req
	}
	idx = int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent, Req: req})
	t.cur[gid] = idx
	t.mu.Unlock()
	return idx, prev, gid
}

func (t *tracer) exit(idx, prev int32, gid uint64, n int) {
	end := t.now()
	t.mu.Lock()
	t.spans[idx].End = end
	t.spans[idx].N = int32(n)
	if prev < 0 {
		delete(t.cur, gid)
	} else {
		t.cur[gid] = prev
	}
	t.mu.Unlock()
}

// current returns the goroutine's innermost open span and its request id.
func (t *tracer) current() (int32, uint64, bool) {
	gid := goid()
	t.mu.Lock()
	defer t.mu.Unlock()
	idx, ok := t.cur[gid]
	if !ok {
		return -1, 0, false
	}
	return idx, t.spans[idx].Req, true
}

// markWAL stamps the first WAL write of the goroutine's open ingest span.
func (t *tracer) markWAL() {
	at := t.now()
	gid := goid()
	t.mu.Lock()
	if idx, ok := t.cur[gid]; ok && t.spans[idx].Mark == 0 {
		t.spans[idx].Mark = at
	}
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid parses the running goroutine's id from its stack header
// ("goroutine 123 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// selfTimes returns every span's duration minus the union of the intervals
// its children cover.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, lo, hi := int64(0), int64(-1), int64(-1)
		for _, k := range kids {
			cs, ce := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if ce <= cs {
				continue
			}
			if cs > hi {
				covered += hi - lo
				lo, hi = cs, ce
			} else if ce > hi {
				hi = ce
			}
		}
		covered += hi - lo
		self[i] -= covered
	}
	return self
}

// statusWriter records the response status for route spans. Unwrap keeps
// http.ResponseController (the admission read deadline) working.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// routeSpans times every request a node's handler serves, named
// "<node> <path>". A request carrying the generator's request id (or a
// relay forward carrying its parent span) is linked to its cause.
func (t *tracer) routeSpans(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		parent := int32(-1)
		if p, err := strconv.ParseInt(r.Header.Get(parentHeader), 10, 32); err == nil {
			parent = int32(p)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		idx, prev, gid := t.enter(node+" "+r.URL.Path, parent, req)
		h.ServeHTTP(sw, r)
		t.exit(idx, prev, gid, sw.status)
	})
}

// tracedIngestor times the handler's calls into the admission surface
// (the persist manager on a durable node, the shuffler otherwise).
type tracedIngestor struct {
	t    *tracer
	next httpapi.Ingestor
}

func (i tracedIngestor) SubmitEnvelope(e transport.Envelope) error {
	idx, prev, gid := i.t.enter("ingest", -1, 0)
	err := i.next.SubmitEnvelope(e)
	i.t.exit(idx, prev, gid, 1)
	return err
}

func (i tracedIngestor) SubmitTuples(ts []transport.Tuple) error {
	idx, prev, gid := i.t.enter("ingest", -1, 0)
	err := i.next.SubmitTuples(ts)
	i.t.exit(idx, prev, gid, len(ts))
	return err
}

func (i tracedIngestor) Flush() error {
	idx, prev, gid := i.t.enter("ingest.flush", -1, 0)
	err := i.next.Flush()
	i.t.exit(idx, prev, gid, 0)
	return err
}

// shufflerIngestor submits straight to the shuffler, as an in-memory node
// does when no Ingestor is configured.
type shufflerIngestor struct{ s *shuffler.Shuffler }

func (si shufflerIngestor) SubmitEnvelope(e transport.Envelope) error { si.s.Submit(e); return nil }
func (si shufflerIngestor) SubmitTuples(ts []transport.Tuple) error {
	si.s.SubmitTuples(ts)
	return nil
}
func (si shufflerIngestor) Flush() error { si.s.Flush(); return nil }

// sinkSpans times the shuffler's deliveries into its sink (the server or
// the relay forwarder). skip, when positive, drops that delivery (1-based)
// on the floor: the deliberately wrong result the output checks must catch.
type sinkSpans struct {
	t    *tracer // nil: no timing
	name string
	next shuffler.Sink
	skip int64
	n    atomic.Int64
}

func (s *sinkSpans) Deliver(batch []transport.Tuple) {
	if s.n.Add(1) == s.skip {
		return
	}
	if s.t == nil {
		s.next.Deliver(batch)
		return
	}
	idx, prev, gid := s.t.enter(s.name, -1, 0)
	s.next.Deliver(batch)
	s.t.exit(idx, prev, gid, len(batch))
}

// forwardHeaders tags the relay forwarder's /peer/ingest requests with the
// span that caused them, so the analyzer's route span joins the trace.
type forwardHeaders struct {
	t    *tracer
	next http.RoundTripper
}

func (f forwardHeaders) RoundTrip(r *http.Request) (*http.Response, error) {
	if idx, req, ok := f.t.current(); ok {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.FormatUint(req, 10))
		r.Header.Set(parentHeader, strconv.Itoa(int(idx)))
	}
	return f.next.RoundTrip(r)
}

// devTrace is one device goroutine's span context: client-side code knows
// its own nesting, so it carries the innermost span explicitly.
type devTrace struct {
	t   *tracer // nil: no timing
	cur int32
	req uint64
}

func (d *devTrace) begin(name string) (idx, prev int32) {
	if d == nil || d.t == nil {
		return -1, -1
	}
	idx, prev = d.t.begin(name, d.cur, d.req), d.cur
	d.cur = idx
	return idx, prev
}

func (d *devTrace) end(idx, prev int32) {
	if idx < 0 {
		return
	}
	d.t.end(idx, 0)
	d.cur = prev
}

// revalidating is a device's model source: every warm start revalidates
// the device's cached model with a conditional GET (a 304 while the model
// is unchanged) before serving it.
type revalidating struct {
	src *agent.HTTPSource
	dt  *devTrace
}

func (r revalidating) Model(kind agent.ModelKind) (agent.Model, error) {
	idx, prev := r.dt.begin("agent.fetch")
	defer r.dt.end(idx, prev)
	if err := r.src.Refresh(kind); err != nil {
		return agent.Model{}, err
	}
	return r.src.Model(kind)
}

// benchEncoder maps contexts to codes with a k-means encoder of
// codeSpace-1 centroids while advertising the full code space, so devices
// never produce the reserved probe code.
type benchEncoder struct {
	km *encoding.KMeans
	dt *devTrace
}

func (e benchEncoder) Encode(x []float64) int {
	idx, prev := e.dt.begin("encoding.encode")
	c := e.km.Encode(x)
	e.dt.end(idx, prev)
	return c
}

func (e benchEncoder) K() int { return codeSpace }

// reportSpans times a device's report submissions. drop, when positive,
// swallows that report (1-based, counted across devices): the
// deliberately wrong result the device output check must catch.
type reportSpans struct {
	next agent.Transport
	dt   *devTrace
	drop int64
	n    *atomic.Int64
}

func (r reportSpans) Report(e agent.Envelope) error {
	if r.n.Add(1) == r.drop {
		return nil
	}
	idx, prev := r.dt.begin("agent.report")
	err := r.next.Report(e)
	r.dt.end(idx, prev)
	return err
}

func (r reportSpans) Flush() error { return r.next.Flush() }
