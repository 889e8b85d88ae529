package main

import (
	"bufio"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metricDef names one reported metric with its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the system sees; every run reports
// all of them and BENCHMARK.json bounds them. They are the figures that
// held still between runs of the same code on the shared two-vCPU
// virtual machine the benchmark was built on. ingest_writes_per_request
// counts the write system calls the node processes make per acknowledged
// ingest POST (responses, WAL records, the relay hop): the I/O a
// deployment pays per report batch, and the figure that moves when the
// WAL or the forwarder writes less. The CPU costs, rates and latencies in
// observedMetrics are measured in every run too, but there the machine's
// speed, which drifted by up to 1.7x within minutes, moved them by more
// than any bound the benchmark may set, so they are reported, not gated.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ingest_writes_per_request", "count"},
	{"decide_p50_us", "us"},
	{"freshness_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
}

// observedMetrics are printed with every run, with their sample counts.
var observedMetrics = []metricDef{
	{"ingest_cpu_us_per_tuple", "us"},
	{"session_node_cpu_us", "us"},
	{"ingest_tuples_per_s", "tuples/s"},
	{"ack_p50_ms", "ms"}, {"ack_p99_ms", "ms"},
	{"fetch_p50_ms", "ms"}, {"fetch_p99_ms", "ms"},
	{"freshness_p99_ms", "ms"},
	{"sessions_per_s", "sessions/s"},
	{"warmstart_p50_ms", "ms"}, {"warmstart_p99_ms", "ms"},
	{"decide_p99_us", "us"},
}

// compared are the figures the traced run reports as ratios across the
// real binary, the untraced composition and the traced composition. They
// are reported, not judged: in-process, requests cross no process
// boundary, so the composition warm-starts devices 2-2.6x as fast and
// ingests up to 2x the tuples per second; its per-layer latencies describe
// the shipped node's code paths, not its absolute costs. The CPU costs are
// left out: in-process, the node shares the generator's process and its
// CPU time.
var compared = []string{"warmstart_p50_ms", "decide_p50_us", "freshness_p50_ms", "ingest_tuples_per_s", "ack_p50_ms", "sessions_per_s"}

// perLayerMetrics are what the traced run reports, by layer.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"httpapi.ingest_service_p50_us", "us"}, {"httpapi.ingest_service_p99_us", "us"},
		{"httpapi.client_wait_p99_us", "us"},
		{"httpapi.model_get_200_p50_us", "us"}, {"httpapi.model_get_304_p50_us", "us"},
		{"httpapi.payload_hit_ratio", "ratio"}, {"httpapi.not_modified_ratio", "ratio"},
		{"httpapi.shed_ratio", "ratio"}, {"httpapi.peer_ingest_service_p50_us", "us"},
		{"transport.request_bytes_per_tuple", "bytes"}, {"transport.encode_ns_per_tuple", "ns"},
		{"transport.model_payload_bytes", "bytes"},
		{"shuffler.self_ns_per_tuple", "ns"}, {"shuffler.forwarded_ratio", "ratio"},
		{"shuffler.flush_cut_ratio", "ratio"},
		{"persist.append_p50_us", "us"}, {"persist.append_p99_us", "us"},
		{"persist.fsync_p50_us", "us"}, {"persist.fsyncs_per_request", "count"},
		{"persist.bytes_per_tuple", "bytes"}, {"persist.lock_wait_p99_us", "us"},
		{"persist.checkpoint_p99_ms", "ms"},
		{"server.deliver_p50_us", "us"}, {"server.deliver_p99_us", "us"},
		{"server.shard_contention_ratio", "ratio"}, {"server.snapshot_hit_ratio", "ratio"},
		{"topology.forward_p50_us", "us"}, {"topology.forward_p99_us", "us"},
		{"topology.forward_retries", "count"}, {"topology.forward_dropped", "count"},
		{"agent.fetch_p50_us", "us"}, {"agent.fetch_p99_us", "us"},
		{"agent.init_p50_us", "us"}, {"agent.finish_p50_us", "us"},
		{"encoding.encode_p50_us", "us"}, {"encoding.encode_p99_us", "us"}, {"encoding.fit_s", "s"},
		{"bandit.select_self_p50_us", "us"}, {"bandit.observe_p50_us", "us"},
		{"loadgen.lateness_p50_us", "us"}, {"loadgen.lateness_max_us", "us"},
		{"trace.spans", "count"},
	}
	for _, m := range compared {
		defs = append(defs, metricDef{"trace.overhead." + m, "ratio"})
	}
	for _, m := range compared {
		defs = append(defs, metricDef{"trace.agreement." + m, "ratio"})
	}
	for _, m := range structural {
		defs = append(defs, metricDef{"trace.agreement." + m + "_diff", "ratio"})
	}
	return append(defs, metricDef{"trace.agreement_structural", "bool"})
}()

// endToEnd derives the end-to-end metrics from a run's samples.
func endToEnd(res *results, attempted, failed int64, peakMB float64) map[string]float64 {
	return map[string]float64{
		"setup_s":                   quantile(res.setupS, 0.5),
		"ingest_tuples_per_s":       ratio(float64(res.satTuples), res.satSeconds),
		"ack_p50_ms":                quantile(res.ack, 0.5),
		"ack_p99_ms":                quantile(res.ack, 0.99),
		"fetch_p50_ms":              quantile(res.fetch, 0.5),
		"fetch_p99_ms":              quantile(res.fetch, 0.99),
		"freshness_p50_ms":          quantile(res.fresh, 0.5),
		"freshness_p99_ms":          quantile(res.fresh, 0.99),
		"ok_ratio":                  1 - ratio(float64(failed), float64(attempted)),
		"ingest_cpu_us_per_tuple":   ratio(res.satCPU*1e6, float64(res.satTuples)),
		"ingest_writes_per_request": ratio(res.satWrites, float64(res.satTuples/batchTuples)),
		"session_node_cpu_us":       ratio(res.sessCPU*1e6, float64(res.sessTotal)),
		"sessions_per_s":            ratio(float64(res.sessTotal), res.sessSeconds),
		"warmstart_p50_ms":          quantile(res.warm, 0.5),
		"warmstart_p99_ms":          quantile(res.warm, 0.99),
		"decide_p50_us":             quantile(res.decide, 0.5),
		"decide_p99_us":             quantile(res.decide, 0.99),
		"peak_rss_mb":               peakMB,
	}
}

// layerInputs are the node-side counters the traced composition exposes
// besides its spans.
type layerInputs struct {
	comp       *composition
	modelReads struct{ Hits, Builds int64 }
	prom       map[string]float64 // the ingest node's /metrics
}

// scrape reads a node's /metrics into a map keyed by series (name and
// labels as exposed).
func scrape(c *http.Client, url string) (map[string]float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	series := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			series[line[:i]] = v
		}
	}
	return series, sc.Err()
}

// structural are shares of the ingest node that follow from how it is
// built — threshold and batch size, WAL sync mode — rather than from how
// fast the machine runs it. The traced run requires the real binary and
// the untraced composition to agree on each within agreementTolerance, so
// a composition that drifts from cmd/p2bnode fails the run.
var structural = []string{"shuffler.forwarded_ratio", "persist.fsyncs_per_append"}

// agreementTolerance is the largest absolute difference of a structural
// share between the binary and the composition. The shares sit in [0, 1];
// a changed threshold, batch size or sync mode moves one by 0.1 or more,
// while traced runs of the seed code differ by about 0.01 at most.
const agreementTolerance = 0.05

// departures lists the structural shares on which a composition departs
// from the binary by more than agreementTolerance.
func departures(bin, comp map[string]float64) []string {
	var far []string
	for _, m := range structural {
		if math.Abs(comp[m]-bin[m]) > agreementTolerance {
			far = append(far, fmt.Sprintf("%s %.4f vs %.4f (tolerance %.2f)", m, comp[m], bin[m], agreementTolerance))
		}
	}
	return far
}

// structure derives the structural shares from a node's end state and
// /metrics.
func structure(st endState, prom map[string]float64) map[string]float64 {
	sh := st.Shuffler
	return map[string]float64{
		"shuffler.forwarded_ratio":  ratio(float64(sh.Forwarded), float64(sh.Forwarded+sh.Dropped)),
		"persist.fsyncs_per_append": ratio(prom["p2b_wal_fsync_seconds_count"], prom["p2b_wal_append_seconds_count"]),
	}
}

// perLayer derives the per-layer metrics of a traced run from its spans,
// the generator's own counters and the composition's instruments.
func perLayer(w workload, r *run, in layerInputs) map[string]float64 {
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	ingestNode, modelNode := "node", "node"
	if w.Topo == topoRelay {
		ingestNode, modelNode = "relay", "analyzer"
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var (
		ingestSvc, clientWait, get200, get304, peerSvc []float64
		deliver, forward, fetch, initSelf, finish      []float64
		encode, selectSelf, observe, lockWait          []float64
		ingestSelf, ingestTuples                       int64
		ingestReqs, shed, modelGets, notModified       int
		deliveries                                     int
	)
	for i, s := range spans {
		switch s.Name {
		case ingestNode + " /shuffler/reports", ingestNode + " /shuffler/flush":
			ingestReqs++
			if s.N == http.StatusTooManyRequests || s.N == http.StatusServiceUnavailable {
				shed++
			}
			if s.Name == ingestNode+" /shuffler/reports" && inWindows(s.Start, r.res.openWindows) {
				ingestSvc = append(ingestSvc, us(s.dur()))
				if ack, ok := r.res.openAcks[s.Req]; ok {
					clientWait = append(clientWait, ack-us(s.dur()))
				}
			}
		case modelNode + " /server/model":
			modelGets++
			switch s.N {
			case http.StatusOK:
				get200 = append(get200, us(s.dur()))
			case http.StatusNotModified:
				notModified++
				get304 = append(get304, us(s.dur()))
			}
		case "analyzer /peer/ingest":
			peerSvc = append(peerSvc, us(s.dur()))
			deliveries++
			if s.N == http.StatusTooManyRequests || s.N == http.StatusServiceUnavailable {
				shed++
			}
		case "ingest":
			ingestSelf += self[i]
			ingestTuples += int64(s.N)
			if s.Mark > 0 {
				lockWait = append(lockWait, us(s.Mark-s.Start))
			}
		case "server.deliver":
			deliveries++
			deliver = append(deliver, us(s.dur()))
		case "topology.forward":
			forward = append(forward, us(s.dur()))
		case "agent.fetch":
			fetch = append(fetch, us(s.dur()))
		case "agent.new":
			initSelf = append(initSelf, us(self[i]))
		case "agent.finish":
			finish = append(finish, us(s.dur()))
		case "encoding.encode":
			encode = append(encode, us(s.dur()))
		case "agent.select":
			selectSelf = append(selectSelf, us(self[i]))
		case "agent.observe":
			observe = append(observe, us(s.dur()))
		}
	}
	c := in.comp
	flushCuts := in.prom[`p2b_shuffler_cuts_total{reason="flush"}`]
	m := map[string]float64{
		"httpapi.ingest_service_p50_us":      quantile(ingestSvc, 0.5),
		"httpapi.ingest_service_p99_us":      quantile(ingestSvc, 0.99),
		"httpapi.client_wait_p99_us":         quantile(clientWait, 0.99),
		"httpapi.model_get_200_p50_us":       quantile(get200, 0.5),
		"httpapi.model_get_304_p50_us":       quantile(get304, 0.5),
		"httpapi.payload_hit_ratio":          ratio(float64(in.modelReads.Hits), float64(in.modelReads.Hits+in.modelReads.Builds)),
		"httpapi.not_modified_ratio":         ratio(float64(notModified), float64(modelGets)),
		"httpapi.shed_ratio":                 ratio(float64(shed), float64(ingestReqs+len(peerSvc))),
		"httpapi.peer_ingest_service_p50_us": quantile(peerSvc, 0.5),
		"transport.request_bytes_per_tuple":  ratio(float64(r.reqBytes.Load()), float64(r.reqTuples.Load())),
		"transport.encode_ns_per_tuple":      ratio(float64(r.encodeNs.Load()), float64(r.reqTuples.Load())),
		"transport.model_payload_bytes":      quantile(r.res.modelBytes, 0.5),
		"server.deliver_p50_us":              quantile(deliver, 0.5),
		"server.deliver_p99_us":              quantile(deliver, 0.99),
		"topology.forward_p50_us":            quantile(forward, 0.5),
		"topology.forward_p99_us":            quantile(forward, 0.99),
		"agent.fetch_p50_us":                 quantile(fetch, 0.5),
		"agent.fetch_p99_us":                 quantile(fetch, 0.99),
		"agent.init_p50_us":                  quantile(initSelf, 0.5),
		"agent.finish_p50_us":                quantile(finish, 0.5),
		"encoding.encode_p50_us":             quantile(encode, 0.5),
		"encoding.encode_p99_us":             quantile(encode, 0.99),
		"encoding.fit_s":                     quantile(r.res.fitS, 0.5),
		"bandit.select_self_p50_us":          quantile(selectSelf, 0.5),
		"bandit.observe_p50_us":              quantile(observe, 0.5),
		"loadgen.lateness_p50_us":            quantile(r.res.lateness, 0.5),
		"loadgen.lateness_max_us":            quantile(r.res.lateness, 1),
		"trace.spans":                        float64(len(spans)),
		"persist.lock_wait_p99_us":           quantile(lockWait, 0.99),
		"persist.fsyncs_per_request":         ratio(float64(r.tr.walSyncs.Load()), float64(ingestReqs)),
		"persist.bytes_per_tuple":            ratio(float64(r.tr.walBytes.Load()), float64(ingestTuples)),
		"shuffler.flush_cut_ratio":           ratio(flushCuts, flushCuts+in.prom[`p2b_shuffler_cuts_total{reason="size"}`]),
	}
	// The shuffler's own time is an ingest call's self time (minus the
	// sink, a child span) where no WAL sits in front of it. On a durable
	// node the WAL append has no end hook, so the two cannot be separated
	// and the metric stays 0.
	if c.wal != nil {
		m["persist.append_p50_us"] = c.wal.AppendSeconds.Quantile(0.5) * 1e6
		m["persist.append_p99_us"] = c.wal.AppendSeconds.Quantile(0.99) * 1e6
		m["persist.fsync_p50_us"] = c.wal.FsyncSeconds.Quantile(0.5) * 1e6
		m["persist.checkpoint_p99_ms"] = c.wal.CheckpointSeconds.Quantile(0.99) * 1e3
	} else {
		m["shuffler.self_ns_per_tuple"] = ratio(float64(ingestSelf), float64(ingestTuples))
	}
	sst := c.ingestShuf.Stats()
	m["shuffler.forwarded_ratio"] = ratio(float64(sst.Forwarded), float64(sst.Forwarded+sst.Dropped))
	_, _, contention := c.modelSrv.IngestCounters()
	m["server.shard_contention_ratio"] = ratio(float64(contention), float64(deliveries))
	hits, builds := c.modelSrv.SnapshotCacheStats()
	m["server.snapshot_hit_ratio"] = ratio(float64(hits), float64(hits+builds))
	if c.fwd != nil {
		fst := c.fwd.Stats()
		m["topology.forward_retries"] = float64(fst.Retries)
		m["topology.forward_dropped"] = float64(fst.Dropped)
	}
	for _, d := range perLayerMetrics {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	return m
}

// inWindows reports whether t falls in one of the windows.
func inWindows(t int64, windows [][2]int64) bool {
	for _, w := range windows {
		if t >= w[0] && t <= w[1] {
			return true
		}
	}
	return false
}
