// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives one named workload against the real p2bnode binary
// over loopback HTTP, checks the outputs, and prints the metrics as the
// last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"setup_s": {"value": 1.2, "unit": "s"}, ...}}
//
// With -trace 1 it instead composes the same node in-process from the
// constructors cmd/p2bnode uses, wraps the seams between layers with
// timing decorators and reports the per-layer metrics, together with the
// tracing overhead and how closely the untraced composition agrees with
// the binary. perfbench/run.sh builds both binaries and runs it from the
// repository root; see perfbench/DESIGN.md for the workloads and the
// layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

type config struct {
	w        workload
	seed     uint64
	seconds  float64
	node     string // p2bnode binary
	work     string // scratch directory for data dirs and logs
	traceDir string // where traced runs write their spans
	nproc    int
}

// output is the result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: durable-ingest, relay-fleet or device-sync")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 runs the traced in-process composition and reports per-layer metrics")
		node     = flag.String("node", ".bench_build/bin/p2bnode", "p2bnode binary")
		work     = flag.String("work", ".bench_build/work", "scratch directory")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "directory traced runs write spans to")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, node: *node, work: *work, traceDir: *traceDir, nproc: runtime.NumCPU()}
	runtime.GOMAXPROCS(cfg.nproc)
	// The generator decodes whole models on every 200; collecting less
	// often keeps its own GC pauses out of the client-side tails.
	debug.SetGCPercent(400)
	var (
		out *output
		err error
	)
	if *trace == 1 {
		out, err = traced(cfg)
	} else {
		out, err = plain(cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// sub is one measured pass: a fleet driven through the three phases.
type sub struct {
	r         *run
	e2e       map[string]float64
	checks    []string
	layers    map[string]float64
	structure map[string]float64 // see structural
}

// mode selects what a pass runs against.
type mode int

const (
	modeBinary mode = iota
	modeInproc
	modeTraced
)

// pass sets the fleet up reps times (setup_s is the median), measures
// seconds on the last one and checks its outputs.
func pass(cfg config, m mode, reps int, seconds float64, fl faults) (*sub, error) {
	dir, err := os.MkdirTemp(cfg.work, cfg.w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var tr *tracer
	if m == modeTraced {
		tr = newTracer()
	}
	r := newRun(cfg.w, cfg.seed, cfg.nproc, tr, fl)
	defer r.closeClients()
	var f *fleet
	stop := func() error {
		if f == nil {
			return nil
		}
		err := f.stop()
		f = nil
		return err
	}
	defer stop()
	for rep := 0; rep < reps; rep++ {
		if err := stop(); err != nil {
			return nil, err
		}
		repDir := filepath.Join(dir, fmt.Sprint(rep))
		if err := os.Mkdir(repDir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if m == modeBinary {
			f, err = launchProcesses(cfg.node, repDir, cfg.w, cfg.seed)
		} else {
			f, err = compose(cfg.w, cfg.seed, repDir, tr, fl)
		}
		if err != nil {
			return nil, err
		}
		r.f = f
		t1 := time.Now()
		if r.km, err = fitEncoder(cfg.nproc); err != nil {
			return nil, err
		}
		fit := time.Since(t1).Seconds()
		if err := r.firstReport(); err != nil {
			return nil, fmt.Errorf("first report: %w", err)
		}
		r.res.setupS = append(r.res.setupS, time.Since(t0).Seconds())
		r.res.fitS = append(r.res.fitS, fit)
	}
	r.measure(time.Duration(seconds * float64(time.Second)))
	st, err := r.collect()
	if err != nil {
		return nil, fmt.Errorf("reading node state: %w", err)
	}
	prom, err := scrape(r.ingest, f.ingestURL)
	if err != nil {
		return nil, fmt.Errorf("reading node metrics: %w", err)
	}
	s := &sub{r: r, checks: checkOutputs(cfg.w, st, &r.res, r.acked.Load()), structure: structure(st, prom)}
	peak := 0.0
	if m == modeBinary {
		if peak, err = f.peakRSSMB(); err != nil {
			return nil, err
		}
	} else if kb, err := vmHWM(os.Getpid()); err == nil {
		peak = float64(kb) / 1024
	}
	if m == modeTraced {
		in := layerInputs{comp: f.comp, prom: prom}
		var h struct {
			ModelReads struct {
				Hits   int64 `json:"payload_hits"`
				Builds int64 `json:"payload_builds"`
			} `json:"model_reads"`
		}
		if err := getJSON(r.ingest, f.modelURL+"/healthz", &h); err != nil {
			return nil, err
		}
		in.modelReads.Hits, in.modelReads.Builds = h.ModelReads.Hits, h.ModelReads.Builds
		s.layers = perLayer(cfg.w, r, in)
	}
	if err := stop(); err != nil {
		return nil, err
	}
	s.e2e = endToEnd(&r.res, r.attempted.Load(), r.failed.Load(), peak)
	report(cfg, m, s)
	return s, nil
}

// report prints a pass's figures, sample counts and check results to
// standard error.
func report(cfg config, m mode, s *sub) {
	res := &s.r.res
	label := [...]string{"binary", "in-process", "in-process traced"}[m]
	fmt.Fprintf(os.Stderr, "perfbench %s seed %d (%s): samples ack=%d fetch=%d (200=%d 304=%d) freshness=%d/%d probes sessions=%d decide=%d; generator lateness p50 %.0fus max %.0fus, %d missed\n",
		cfg.w.Name, cfg.seed, label, len(res.ack), len(res.fetch), res.fetch200, res.fetch304,
		len(res.fresh), res.probes, res.sessions, len(res.decide),
		quantile(res.lateness, 0.5), quantile(res.lateness, 1), res.missed)
	for _, d := range append(endToEndMetrics, observedMetrics...) {
		fmt.Fprintf(os.Stderr, "  %-24s %12.4f %s\n", d.name, s.e2e[d.name], d.unit)
	}
	for _, c := range s.checks {
		fmt.Fprintf(os.Stderr, "  CHECK FAILED: %s\n", c)
	}
}

// plain is the end-to-end run against the real binary.
func plain(cfg config) (*output, error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	s, err := pass(cfg, modeBinary, setupReps, cfg.seconds, faults{})
	if err != nil {
		return nil, err
	}
	out := &output{
		Correct:   len(s.checks) == 0,
		Attempted: s.r.attempted.Load(),
		Failed:    s.r.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	for _, d := range endToEndMetrics {
		out.Metrics[d.name] = metricValue{Value: s.e2e[d.name], Unit: d.unit}
	}
	return out, nil
}

// traced splits the run into thirds: the real binary, the untraced
// in-process composition and the traced one. The per-layer metrics come
// from the traced third; the first two give agreement, the last two
// overhead.
func traced(cfg config) (*output, error) {
	for _, d := range []string{cfg.work, cfg.traceDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	third := cfg.seconds / 3
	var subs []*sub
	for _, m := range []mode{modeBinary, modeInproc, modeTraced} {
		s, err := pass(cfg, m, 1, third, faults{})
		if err != nil {
			return nil, err
		}
		subs = append(subs, s)
	}
	bin, plainComp, tr := subs[0], subs[1], subs[2]
	spanFile := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", cfg.w.Name, cfg.seed))
	if err := tr.r.tr.write(spanFile); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", spanFile)
	out := &output{Correct: true, Metrics: map[string]metricValue{}}
	for _, s := range subs {
		out.Correct = out.Correct && len(s.checks) == 0
		out.Attempted += s.r.attempted.Load()
		out.Failed += s.r.failed.Load()
	}
	for _, m := range compared {
		tr.layers["trace.overhead."+m] = ratio(tr.e2e[m], plainComp.e2e[m])
		tr.layers["trace.agreement."+m] = ratio(plainComp.e2e[m], bin.e2e[m])
	}
	agree := 1.0
	for _, m := range structural {
		tr.layers["trace.agreement."+m+"_diff"] = math.Abs(plainComp.structure[m] - bin.structure[m])
	}
	for _, d := range departures(bin.structure, plainComp.structure) {
		agree = 0
		out.Correct = false
		fmt.Fprintf(os.Stderr, "  CHECK FAILED: in-process composition departs from the binary: %s\n", d)
	}
	tr.layers["trace.agreement_structural"] = agree
	for _, d := range perLayerMetrics {
		v, ok := tr.layers[d.name]
		if !ok {
			return nil, errors.New("per-layer metric " + d.name + " was not derived")
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-40s %14.4f %s\n", d.name, v, d.unit)
	}
	return out, nil
}
