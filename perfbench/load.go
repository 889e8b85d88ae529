package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"p2b/agent"
	"p2b/internal/bandit"
	"p2b/internal/encoding"
	"p2b/internal/httpapi"
	"p2b/internal/rng"
	"p2b/internal/transport"
)

// run drives one workload against one fleet and accumulates what it
// measured. The generator never opens more connections per stream than
// noted on the clients.
type run struct {
	w     workload
	seed  uint64
	f     *fleet
	tr    *tracer // nil: untraced
	km    *encoding.KMeans
	nproc int
	fl    faults

	// ingest carries the saturation and open-loop senders (nproc
	// connections), poll the model poller and probe the freshness prober
	// (one each); devModels and devReports carry device sessions.
	ingest, poll, probe, devModels, devReports *http.Client

	batches [][]transport.Tuple // pre-generated bulk batches, cycled
	devIDs  []string
	cursor  atomic.Int64
	// arrivals draws the open-loop inter-arrival times.
	arrivals *rng.Rand

	attempted, failed atomic.Int64
	acked             atomic.Int64 // tuples the ingest node acknowledged
	reqID             atomic.Uint64

	encodeNs, reqBytes, reqTuples atomic.Int64

	mu  sync.Mutex
	res results
}

// results are a run's raw samples and counters.
type results struct {
	setupS, fitS  []float64
	satTuples     int64     // tuples acked in saturation sampling windows
	satSeconds    float64   // summed length of those windows
	satCPU        float64   // node CPU seconds spent in them
	satWrites     float64   // node write system calls made in them
	ack, fetch    []float64 // ms from the intended send time
	fresh         []float64 // ms, probe intended send -> visible in a fetched model
	lateness      []float64 // µs an open-loop request started after it was due
	missed        int64     // open-loop arrivals dropped because the send queue was full
	openAcks      map[uint64]float64
	openWindows   [][2]int64 // tracer times of the open-loop sampling windows
	sessTotal     int64      // sessions completed in device sampling windows
	sessSeconds   float64
	sessCPU       float64   // node CPU seconds spent in device sampling windows
	warm          []float64 // ms
	decide        []float64 // µs
	sessions      int64
	coldSessions  int64 // sessions that did not warm-start (or degraded)
	disclosed     int64
	reported      int64 // device reports the transport accepted
	droppedReport int64 // device reports the transport gave up on
	modelBytes    []float64
	probes        int64
	// deviceAdvances counts model version advances during device phases
	// (read only where the workload requires devices to move the model).
	deviceAdvances uint64
	fetch200       int64
	fetch304       int64
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
}

func newRun(w workload, seed uint64, nproc int, tr *tracer, fl faults) *run {
	r := &run{
		w: w, seed: seed, tr: tr, nproc: nproc, fl: fl,
		ingest: newClient(nproc), poll: newClient(1), probe: newClient(1),
		devModels: newClient(nproc), devReports: newClient(nproc),
	}
	r.arrivals = rng.New(seed).Split("arrivals")
	r.res.openAcks = map[uint64]float64{}
	src := rng.New(seed).Split("bulk")
	zipf := rng.NewZipf(src, zipfS, probeCode) // codes 0..probeCode-1
	r.batches = make([][]transport.Tuple, 512)
	for i := range r.batches {
		b := make([]transport.Tuple, batchTuples)
		for j := range b {
			reward := 0.0
			if src.Bernoulli(0.3) {
				reward = 1
			}
			b[j] = transport.Tuple{Code: zipf.Draw(), Action: src.IntN(arms), Reward: reward}
		}
		r.batches[i] = b
	}
	r.devIDs = make([]string, 4096)
	for i := range r.devIDs {
		r.devIDs[i] = "device-" + strconv.Itoa(i)
	}
	return r
}

// closeClients releases idle keep-alive connections.
func (r *run) closeClients() {
	for _, c := range []*http.Client{r.ingest, r.poll, r.probe, r.devModels, r.devReports} {
		c.CloseIdleConnections()
	}
}

// post ships one binary P2B1 batch and checks the node acknowledged every
// tuple. buf is a reusable encode buffer.
func (r *run) post(c *http.Client, tuples []transport.Tuple, id uint64, buf []byte) ([]byte, error) {
	t0 := time.Now()
	buf = transport.AppendMagic(buf[:0])
	for i := range tuples {
		e := transport.Envelope{Meta: transport.Metadata{DeviceID: r.devIDs[(int(id)+i)%len(r.devIDs)]}, Tuple: tuples[i]}
		buf = e.AppendFrame(buf)
	}
	r.encodeNs.Add(int64(time.Since(t0)))
	r.attempted.Add(1)
	req, err := http.NewRequest(http.MethodPost, r.f.ingestURL+"/shuffler/reports", bytes.NewReader(buf))
	if err != nil {
		r.failed.Add(1)
		return buf, err
	}
	req.Header.Set("Content-Type", transport.ContentTypeBinary)
	req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	resp, err := c.Do(req)
	if err != nil {
		r.failed.Add(1)
		return buf, err
	}
	var ack httpapi.BatchAck
	derr := json.NewDecoder(resp.Body).Decode(&ack)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 || derr != nil || ack.Accepted != len(tuples) || ack.Dropped != 0 {
		r.failed.Add(1)
		return buf, fmt.Errorf("ingest: status %d, ack %+v, decode error %v", resp.StatusCode, ack, derr)
	}
	r.acked.Add(int64(len(tuples)))
	r.reqBytes.Add(int64(len(buf)))
	r.reqTuples.Add(int64(len(tuples)))
	return buf, nil
}

// probeBatch is 2l copies of the reserved code with one action: however
// the shuffler's cuts split it, one cut holds at least l copies.
func (r *run) probeBatch(action int) []transport.Tuple {
	b := make([]transport.Tuple, 2*r.w.Threshold)
	for i := range b {
		b[i] = transport.Tuple{Code: probeCode, Action: action, Reward: 1}
	}
	return b
}

// firstReport ends set-up: one probe batch is accepted and a flush pushes
// it through the privacy batch (and, on a relay, to the analyzer).
func (r *run) firstReport() error {
	r.acked.Store(0)
	if _, err := r.post(r.ingest, r.probeBatch(0), r.reqID.Add(1), nil); err != nil {
		return err
	}
	return r.flush()
}

// flush cuts the ingest shuffler's pending batch.
func (r *run) flush() error {
	resp, err := r.ingest.Post(r.f.ingestURL+"/shuffler/flush", "", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("flush: status %d", resp.StatusCode)
	}
	return nil
}

// fitEncoder fits the device encoder on a uniform context sample. The
// encoder ships with the app, so it is part of the workload definition,
// not of a run's random draws.
func fitEncoder(workers int) (*encoding.KMeans, error) {
	src := rng.New(populationSeed).Split("encoder")
	data := make([][]float64, fitSamples)
	for i := range data {
		x := make([]float64, ctxDim)
		for j := range x {
			x[j] = src.Float64()
		}
		data[i] = x
	}
	return encoding.FitKMeansOptions(data, probeCode, encoding.FitOptions{MaxIter: fitIters, Tol: 1e-4, Workers: workers}, src.Split("fit"))
}

// measure runs rounds of the three phases for total. Interleaving the
// phases makes every metric sample the whole run, so a slow stretch of a
// shared disk or CPU lands in all metrics instead of in whichever phase
// happened to run through it.
func (r *run) measure(total time.Duration) {
	per := total / rounds
	share := func(s float64) time.Duration { return time.Duration(float64(per) * s) }
	p := &prober{first: make(chan struct{}), seen: make(chan struct{}, 1)}
	fl := r.newFleetOfDevices()
	for i := 0; i < rounds; i++ {
		r.saturate(share(r.w.Sat))
		r.openLoop(share(r.w.Open), p)
		r.devices(share(r.w.Dev), fl)
	}
	r.attempted.Add(1)
	if err := fl.transport.Close(); err != nil {
		r.failed.Add(1)
	}
	st := fl.transport.Stats()
	r.res.reported = st.Reported
	r.res.droppedReport = st.DroppedReports
	r.acked.Add(st.Reported - st.DroppedReports)
}

// window returns a phase's sampling window: the first warmShare of it
// is not sampled.
func window(d time.Duration) (start, from, end time.Time) {
	start = time.Now()
	return start, start.Add(time.Duration(float64(d) * warmShare)), start.Add(d)
}

// saturate is the closed-loop ceiling: nproc senders post back to back;
// tuples acked inside the sampling window count.
func (r *run) saturate(d time.Duration) {
	_, from, end := window(d)
	var counted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < r.nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for time.Now().Before(end) {
				i := r.cursor.Add(1)
				var err error
				buf, err = r.post(r.ingest, r.batches[i%int64(len(r.batches))], r.reqID.Add(1), buf)
				if now := time.Now(); err == nil && now.After(from) && !now.After(end) {
					counted.Add(batchTuples)
				}
			}
		}()
	}
	u := r.windowUsage(from, end)
	wg.Wait()
	r.res.satCPU += u.cpu
	r.res.satWrites += u.writes
	r.res.satTuples += counted.Load()
	r.res.satSeconds += end.Sub(from).Seconds()
}

// windowUsage sleeps through a sampling window and returns what the
// nodes used in it.
func (r *run) windowUsage(from, end time.Time) usage {
	time.Sleep(time.Until(from))
	u0 := r.f.usage()
	time.Sleep(time.Until(end))
	u1 := r.f.usage()
	return usage{cpu: u1.cpu - u0.cpu, writes: u1.writes - u0.writes}
}

type arrival struct {
	at time.Time
	id uint64
}

// openLoop posts at Poisson arrivals of OpenRate; each ack is timed from
// its intended send time, so queueing in the generator counts.
func (r *run) openLoop(d time.Duration, p *prober) {
	start, from, end := window(d)
	if r.tr != nil {
		r.res.openWindows = append(r.res.openWindows, [2]int64{int64(from.Sub(r.tr.t0)), int64(end.Sub(r.tr.t0))})
	}
	var pollWG sync.WaitGroup
	r.startPolling(p, from, end, &pollWG)
	// Sized for every arrival a phase of up to a minute can generate at
	// the configured rates, so a stalled node shows up as ack latency, not
	// as dropped arrivals.
	queue := make(chan arrival, 1<<16)
	var wg sync.WaitGroup
	for g := 0; g < r.nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for a := range queue {
				i := r.cursor.Add(1)
				late := time.Since(a.at)
				var err error
				buf, err = r.post(r.ingest, r.batches[i%int64(len(r.batches))], a.id, buf)
				if err != nil || a.at.Before(from) {
					continue
				}
				lat := time.Since(a.at)
				r.mu.Lock()
				r.res.lateness = append(r.res.lateness, float64(late)/1e3)
				r.res.ack = append(r.res.ack, ms(lat))
				if r.tr != nil {
					r.res.openAcks[a.id] = float64(lat) / 1e3
				}
				r.mu.Unlock()
			}
		}()
	}
	at := start
	for {
		at = at.Add(time.Duration(-math.Log(1-r.arrivals.Float64()) / r.w.OpenRate * float64(time.Second)))
		if at.After(end) {
			break
		}
		time.Sleep(time.Until(at))
		select {
		case queue <- arrival{at: at, id: r.reqID.Add(1)}:
		default:
			r.attempted.Add(1)
			r.failed.Add(1)
			r.res.missed++
		}
	}
	close(queue)
	wg.Wait()
	pollWG.Wait()
}

// prober is the state the model poller (which sees models) and the
// freshness prober (which sends probes) share across a run's rounds.
type prober struct {
	first     chan struct{} // closed at the first decoded model
	firstOnce sync.Once
	seen      chan struct{} // one token per detected probe

	mu       sync.Mutex
	model    *bandit.TabularState
	etag     string
	n        int // probes sent
	pending  bool
	action   int
	baseline float64
	sentAt   time.Time
}

// startPolling runs the fixed-rate conditional model poller and the
// freshness prober until end; samples count from from.
func (r *run) startPolling(p *prober, from, end time.Time, wg *sync.WaitGroup) {
	wg.Add(2)
	go func() {
		defer wg.Done()
		r.pollLoop(p, from, end)
	}()
	go func() {
		defer wg.Done()
		r.probeLoop(p, from, end)
	}()
}

func (r *run) pollLoop(p *prober, from, end time.Time) {
	interval := time.Duration(float64(time.Second) / fetchRate)
	for at := time.Now(); at.Before(end); at = at.Add(interval) {
		time.Sleep(time.Until(at))
		r.attempted.Add(1)
		req, err := http.NewRequest(http.MethodGet, r.f.modelURL+"/server/model?kind=tabular", nil)
		if err != nil {
			r.failed.Add(1)
			continue
		}
		req.Header.Set("Accept", transport.ContentTypeModel)
		if p.etag != "" {
			req.Header.Set("If-None-Match", p.etag)
		}
		resp, err := r.poll.Do(req)
		if err != nil {
			r.failed.Add(1)
			continue
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		done := time.Now()
		if rerr != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotModified) {
			r.failed.Add(1)
			continue
		}
		r.mu.Lock()
		if !at.Before(from) {
			r.res.fetch = append(r.res.fetch, ms(done.Sub(at)))
		}
		if resp.StatusCode == http.StatusNotModified {
			r.res.fetch304++
			r.mu.Unlock()
			continue
		}
		r.res.fetch200++
		r.res.modelBytes = append(r.res.modelBytes, float64(len(body)))
		r.mu.Unlock()
		_, tab, _, err := transport.DecodeModel(body)
		if err != nil || tab == nil {
			r.failed.Add(1)
			continue
		}
		p.mu.Lock()
		p.model, p.etag = tab, resp.Header.Get("ETag")
		if p.pending && tab.Count[probeCode*arms+p.action] >= p.baseline+float64(r.w.Threshold) {
			p.pending = false
			if !p.sentAt.Before(from) {
				r.mu.Lock()
				r.res.fresh = append(r.res.fresh, ms(done.Sub(p.sentAt)))
				r.mu.Unlock()
			}
			select {
			case p.seen <- struct{}{}:
			default:
			}
		}
		p.mu.Unlock()
		p.firstOnce.Do(func() { close(p.first) })
	}
}

// probeLoop sends a probe only once the previous one is visible, cycling
// the probe's action so a leftover of an earlier probe never counts. A
// probe still pending at the end of the phase is abandoned.
func (r *run) probeLoop(p *prober, from, end time.Time) {
	stop := time.After(time.Until(end))
	defer func() {
		p.mu.Lock()
		p.pending = false
		p.mu.Unlock()
		select {
		case <-p.seen:
		default:
		}
	}()
	select {
	case <-p.first:
	case <-stop:
		return
	}
	var buf []byte
	for {
		p.mu.Lock()
		p.n++
		p.action = p.n % arms
		p.baseline = p.model.Count[probeCode*arms+p.action]
		p.pending = true
		p.sentAt = time.Now()
		action := p.action
		p.mu.Unlock()
		var err error
		buf, err = r.post(r.probe, r.probeBatch(action), r.reqID.Add(1), buf)
		if err != nil {
			return
		}
		r.mu.Lock()
		r.res.probes++
		r.mu.Unlock()
		select {
		case <-p.seen:
		case <-stop:
			return
		}
	}
}

// device is one simulated device: its own model cache (so its
// revalidations see 200s and 304s as the model moves), a home context its
// interactions scatter around, and the action it prefers.
type device struct {
	src  *agent.HTTPSource
	home []float64
	pref int
}

// deviceFleet is the device pool and the report transport the devices
// share; both live across a run's rounds.
type deviceFleet struct {
	pool      []*device
	transport *agent.HTTPTransport
	reports   atomic.Int64 // reports submitted (the dropReport fault counts them)
	sessions  []int        // sessions started per device goroutine
	round     int          // device phases run so far
}

func (r *run) newFleetOfDevices() *deviceFleet {
	fl := &deviceFleet{
		transport: agent.NewHTTPTransport(r.f.ingestURL, agent.HTTPTransportOptions{
			MaxBatch: 32, MaxAge: 5 * time.Millisecond, MaxInFlight: r.nproc, Seed: r.seed, HTTPClient: r.devReports,
		}),
		sessions: make([]int, r.nproc),
	}
	src := rng.New(populationSeed).Split("devices")
	fl.pool = make([]*device, devices)
	for i := range fl.pool {
		home := make([]float64, ctxDim)
		for j := range home {
			home[j] = src.Float64()
		}
		fl.pool[i] = &device{
			src:  agent.NewHTTPSource(r.f.modelURL, agent.HTTPSourceOptions{HTTPClient: r.devModels, Seed: uint64(i + 1)}),
			home: home,
			pref: src.IntN(arms),
		}
	}
	return fl
}

// devices runs closed-loop device sessions on nproc goroutines, each over
// its own slice of the device pool with Zipf popularity.
func (r *run) devices(d time.Duration, fl *deviceFleet) {
	if r.w.DevicesMoveModel {
		// Cut the bulk phases' leftovers first, so only device reports can
		// move the model during this phase.
		r.attempted.Add(1)
		err := r.flush()
		var before uint64
		if err == nil {
			before, _, err = r.model()
		}
		if err != nil {
			r.failed.Add(1)
		}
		defer func() {
			r.attempted.Add(1)
			after, _, err := r.model()
			if err != nil {
				r.failed.Add(1)
				return
			}
			r.res.deviceAdvances += after - before
		}()
	}
	_, from, end := window(d)
	fl.round++
	var completed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < r.nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []*device
			for i := g; i < len(fl.pool); i += r.nproc {
				mine = append(mine, fl.pool[i])
			}
			gr := rng.New(r.seed).SplitIndex("device-goroutine", fl.round*r.nproc+g)
			pick := rng.NewZipf(gr, 1, len(mine))
			dt := &devTrace{t: r.tr, cur: -1}
			enc := benchEncoder{km: r.km, dt: dt}
			rep := reportSpans{next: fl.transport, dt: dt, drop: r.fl.dropReport, n: &fl.reports}
			x := make([]float64, ctxDim)
			for time.Now().Before(end) {
				fl.sessions[g]++
				dev := mine[pick.Draw()]
				ok := r.session(dev, gr, dt, enc, rep, x, uint64(g)<<32|uint64(fl.sessions[g]), from)
				if now := time.Now(); ok && now.After(from) && !now.After(end) {
					completed.Add(1)
				}
			}
		}()
	}
	u := r.windowUsage(from, end)
	wg.Wait()
	r.res.sessCPU += u.cpu
	r.res.sessTotal += completed.Load()
	r.res.sessSeconds += end.Sub(from).Seconds()
}

// session is one device session: warm start, T interactions, Finish.
func (r *run) session(dev *device, gr *rng.Rand, dt *devTrace, enc benchEncoder, rep reportSpans, x []float64, id uint64, from time.Time) bool {
	r.attempted.Add(1)
	dt.req = id
	root := int32(-1)
	if r.tr != nil {
		root = r.tr.begin("device.session", -1, id)
		defer r.tr.end(root, 0)
	}
	dt.cur = root
	t0 := time.Now()
	idx, prev := dt.begin("agent.new")
	a, err := agent.New(agent.Config{
		Policy: agent.PolicyTabular, P: participation, ReportWindow: reportWindow,
		Encoder: enc, Source: revalidating{src: dev.src, dt: dt}, Transport: rep,
		Rand: gr.SplitIndex("session", int(id&0xffffffff)),
	})
	dt.end(idx, prev)
	warm := time.Since(t0)
	sampled := !t0.Before(from)
	if err != nil || !a.WarmStarted() || a.Degraded() {
		r.failed.Add(1)
		r.mu.Lock()
		r.res.coldSessions++
		r.mu.Unlock()
		return false
	}
	decide := make([]float64, 0, sessionT)
	for i := 0; i < sessionT; i++ {
		for j := range x {
			x[j] = dev.home[j] + gr.Norm(0, 0.03)
		}
		t1 := time.Now()
		idx, prev := dt.begin("agent.select")
		act := a.Select(x)
		dt.end(idx, prev)
		spent := time.Since(t1)
		reward := 0.0
		if act == dev.pref {
			reward = 1
		}
		t2 := time.Now()
		idx, prev = dt.begin("agent.observe")
		a.Observe(act, reward)
		dt.end(idx, prev)
		decide = append(decide, float64(spent+time.Since(t2))/1e3)
	}
	idx, prev = dt.begin("agent.finish")
	n, err := a.Finish()
	dt.end(idx, prev)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.sessions++
	r.res.disclosed += int64(n)
	if sampled {
		r.res.warm = append(r.res.warm, ms(warm))
		r.res.decide = append(r.res.decide, decide...)
	}
	if err != nil {
		r.failed.Add(1)
		return false
	}
	return true
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// endState is what the nodes report after the phases.
type endState struct {
	Shuffler       httpapi.ShufflerStats
	TuplesIngested int64
	RelayDups      int64
	Forward        struct{ Tuples, Dropped, Duplicates, Retries int64 }
	Mass           float64 // total count in the served tabular model
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// collect reads the nodes' counters and the served model.
func (r *run) collect() (endState, error) {
	var st endState
	c := r.ingest
	if err := getJSON(c, r.f.ingestURL+"/shuffler/stats", &st.Shuffler); err != nil {
		return st, err
	}
	var ss struct {
		TuplesIngested int64
		Peers          *struct {
			RelayDuplicates int64 `json:"relay_duplicates"`
		} `json:"peers"`
	}
	if err := getJSON(c, r.f.modelURL+"/server/stats", &ss); err != nil {
		return st, err
	}
	st.TuplesIngested = ss.TuplesIngested
	if ss.Peers != nil {
		st.RelayDups = ss.Peers.RelayDuplicates
	}
	if r.f.relay {
		var h httpapi.RelayHealth
		if err := getJSON(c, r.f.ingestURL+"/healthz", &h); err != nil {
			return st, err
		}
		st.Forward.Tuples, st.Forward.Dropped = h.Forward.Tuples, h.Forward.Dropped
		st.Forward.Duplicates, st.Forward.Retries = h.Forward.Duplicates, h.Forward.Retries
	}
	var err error
	_, st.Mass, err = r.model()
	return st, err
}

// model reads the served tabular model's version and total count.
func (r *run) model() (version uint64, mass float64, err error) {
	req, err := http.NewRequest(http.MethodGet, r.f.modelURL+"/server/model?kind=tabular", nil)
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Accept", transport.ContentTypeModel)
	resp, err := r.ingest.Do(req)
	if err != nil {
		return 0, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, 0, err
	}
	version, tab, _, err := transport.DecodeModel(body)
	if err != nil {
		return 0, 0, err
	}
	if tab == nil {
		return 0, 0, errors.New("model route served no tabular model")
	}
	for _, n := range tab.Count {
		mass += n
	}
	return version, mass, nil
}
