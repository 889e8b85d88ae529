package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// nodeBin is the p2bnode binary built once for the tests.
var nodeBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	nodeBin = filepath.Join(dir, "p2bnode")
	build := exec.Command("go", "build", "-o", nodeBin, "./cmd/p2bnode")
	build.Dir = ".."
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		panic("building p2bnode: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// spec is the part of BENCHMARK.json the tests compare against.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func testConfig(t *testing.T, w workload, seconds float64) config {
	t.Helper()
	return config{
		w: w, seed: 7, seconds: seconds, node: nodeBin, work: t.TempDir(), traceDir: t.TempDir(),
		nproc: runtime.NumCPU(),
	}
}

// TestSpecMatchesCode pins BENCHMARK.json to the metrics and workloads the
// code emits, name and unit.
func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the code defines %d", names, len(workloads))
	}
	compare := func(kind string, code []metricDef, specNames, specUnits []string) {
		if len(code) != len(specNames) {
			t.Errorf("%s: code emits %d metrics, BENCHMARK.json lists %d", kind, len(code), len(specNames))
		}
		for i := range min(len(code), len(specNames)) {
			if code[i].name != specNames[i] || code[i].unit != specUnits[i] {
				t.Errorf("%s metric %d: code %s (%s), BENCHMARK.json %s (%s)", kind, i, code[i].name, code[i].unit, specNames[i], specUnits[i])
			}
		}
	}
	var en, eu, pn, pu []string
	for _, m := range s.EndToEnd {
		en, eu = append(en, m.Name), append(eu, m.Unit)
	}
	for _, m := range s.PerLayer {
		pn, pu = append(pn, m.Name), append(pu, m.Unit)
	}
	compare("end_to_end", endToEndMetrics, en, eu)
	compare("per_layer", perLayerMetrics, pn, pu)
}

// TestSmokeEveryWorkload runs each workload briefly against the real
// binary and checks every end-to-end metric is emitted with its unit and
// the outputs pass their checks. Six seconds give each device phase about
// 0.6 s: shorter phases can end before device reports fill a shuffler
// batch, and device-sync's threshold check then fails on a slow machine.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			out, err := plain(testConfig(t, w, 6))
			if err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("correct %v, attempted %d, failed %d", out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(endToEndMetrics) {
				t.Errorf("emitted %d metrics, want %d", len(out.Metrics), len(endToEndMetrics))
			}
			for _, d := range endToEndMetrics {
				v, ok := out.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("metric %s: got %+v, want unit %s", d.name, v, d.unit)
				}
				if v.Value <= 0 {
					t.Errorf("metric %s is %v; end-to-end metrics must never be 0", d.name, v.Value)
				}
			}
		})
	}
}

// TestTracedRunShowsEachLayer runs the traced composition of every
// workload and checks the per-layer metrics land where the layer map
// predicts: strict fsync costs one fsync per request and the relay far
// fewer, only the relay forwards, device-sync touches neither the WAL nor
// the relay hop, and its model reads both rebuild and hit the cache.
func TestTracedRunShowsEachLayer(t *testing.T) {
	got := map[string]map[string]float64{}
	for _, w := range workloads {
		out, err := traced(testConfig(t, w, 18))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !out.Correct || out.Failed != 0 {
			t.Fatalf("%s: correct %v, failed %d", w.Name, out.Correct, out.Failed)
		}
		m := map[string]float64{}
		for _, d := range perLayerMetrics {
			v, ok := out.Metrics[d.name]
			if !ok || v.Unit != d.unit {
				t.Errorf("%s: per-layer metric %s: got %+v, want unit %s", w.Name, d.name, v, d.unit)
			}
			m[d.name] = v.Value
		}
		got[w.Name] = m
	}
	durable, relay, device := got["durable-ingest"], got["relay-fleet"], got["device-sync"]
	if f := durable["persist.fsyncs_per_request"]; f < 0.9 || f > 1.5 {
		t.Errorf("durable-ingest: %.2f fsyncs per request, want about 1", f)
	}
	if f := relay["persist.fsyncs_per_request"]; f <= 0 || f >= 0.5 {
		t.Errorf("relay-fleet: %.2f fsyncs per request, want well under 1", f)
	}
	for _, name := range []string{"topology.forward_p50_us", "topology.forward_p99_us"} {
		if relay[name] <= 0 || durable[name] != 0 || device[name] != 0 {
			t.Errorf("%s: relay %v, durable %v, device %v; want nonzero only on relay-fleet", name, relay[name], durable[name], device[name])
		}
	}
	for name, v := range device {
		if (strings.HasPrefix(name, "persist.") || strings.HasPrefix(name, "topology.")) && v != 0 {
			t.Errorf("device-sync: %s = %v, want 0", name, v)
		}
	}
	if h := device["httpapi.payload_hit_ratio"]; h <= 0 || h >= 1 {
		t.Errorf("device-sync: payload hit ratio %v, want strictly between 0 and 1", h)
	}
}

// TestChecksTrip composes each workload in-process with one deliberate
// defect and checks the output checks catch it.
func TestChecksTrip(t *testing.T) {
	cases := []struct {
		workload string
		fault    faults
		want     string
	}{
		{"durable-ingest", faults{skipSinkBatch: 3}, "server ingested"},
		{"relay-fleet", faults{skipSinkBatch: 3}, "relay forwarder shipped"},
		{"device-sync", faults{dropReport: 5}, "devices disclosed"},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			w, _ := findWorkload(c.workload)
			s, err := pass(testConfig(t, w, 1.5), modeInproc, 1, 1.5, c.fault)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(strings.Join(s.checks, "\n"), c.want) {
				t.Fatalf("checks %q do not report %q", s.checks, c.want)
			}
		})
	}
}

// TestAgreementTrips checks that the traced run's agreement check tells a
// composition built like the binary from one with another threshold.
func TestAgreementTrips(t *testing.T) {
	w, _ := findWorkload("durable-ingest")
	cfg := testConfig(t, w, 1.5)
	var subs []*sub
	for _, c := range []struct {
		m  mode
		fl faults
	}{{modeBinary, faults{}}, {modeInproc, faults{}}, {modeInproc, faults{threshold: 4 * w.Threshold}}} {
		s, err := pass(cfg, c.m, 1, 1.5, c.fl)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	t.Logf("binary %v, composition %v, threshold x4 %v", subs[0].structure, subs[1].structure, subs[2].structure)
	if far := departures(subs[0].structure, subs[1].structure); len(far) != 0 {
		t.Errorf("composition built like the binary departs from it: %v", far)
	}
	if far := departures(subs[0].structure, subs[2].structure); len(far) == 0 {
		t.Errorf("composition with threshold %d agrees with the binary: %v vs %v", 4*w.Threshold, subs[2].structure, subs[0].structure)
	}
}

// TestCheckOutputs feeds checkOutputs consistent and broken end states.
func TestCheckOutputs(t *testing.T) {
	good := func() (endState, *results) {
		var st endState
		st.Shuffler.Received, st.Shuffler.Forwarded, st.Shuffler.Dropped, st.Shuffler.Pending = 100, 70, 20, 10
		st.TuplesIngested, st.Mass = 70, 70
		return st, &results{disclosed: 5, reported: 5, deviceAdvances: rounds}
	}
	durable, _ := findWorkload("durable-ingest")
	relay, _ := findWorkload("relay-fleet")
	device, _ := findWorkload("device-sync")
	st, res := good()
	if bad := checkOutputs(durable, st, res, 100); len(bad) != 0 {
		t.Fatalf("consistent state flagged: %v", bad)
	}
	cases := []struct {
		name   string
		w      workload
		mutate func(*endState, *results)
		acked  int64
		want   string
	}{
		{"lost before shuffler", durable, func(*endState, *results) {}, 101, "shuffler received"},
		{"shuffler leaks", durable, func(s *endState, _ *results) { s.Shuffler.Dropped-- }, 100, "pending"},
		{"model mass", durable, func(s *endState, _ *results) { s.Mass++ }, 100, "served model holds"},
		{"relay short", relay, func(s *endState, _ *results) { s.Forward.Tuples = 69 }, 100, "relay forwarder shipped"},
		{"relay duplicate", relay, func(s *endState, _ *results) { s.Forward.Tuples, s.RelayDups = 70, 1 }, 100, "relay hop"},
		{"cold device", device, func(_ *endState, r *results) { r.coldSessions = 1 }, 100, "warm-start"},
		{"threshold trap", device, func(_ *endState, r *results) { r.deviceAdvances = rounds - 1 }, 100, "cleared the threshold"},
	}
	for _, c := range cases {
		st, res := good()
		c.mutate(&st, res)
		if bad := checkOutputs(c.w, st, res, c.acked); !strings.Contains(strings.Join(bad, "\n"), c.want) {
			t.Errorf("%s: checks %q do not report %q", c.name, bad, c.want)
		}
	}
}

// TestSelfTimes subtracts the union of child intervals, not their sum.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 50, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent
		{Name: "leaf", Start: 12, End: 20, Parent: 1},
	}
	self := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30 - 8, 20, 30, 8}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("%s: self %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}
