package main

// Model shapes and traffic constants shared by every workload.
// perfbench/DESIGN.md ("Where the parameters come from") gives the basis of
// each: the paper's settings as this repository's experiments reproduce
// them, a figure measured on the seed code, or a benchmark choice.
const (
	// The paper's real-data model shapes: k = 2^10 codes, 20 actions,
	// 10-dimensional contexts (Figure 5's setting).
	codeSpace = 1024
	arms      = 20
	ctxDim    = 10
	// batchTuples is the tuples per binary P2B1 ingest POST: a device-side
	// batching client's batch, as in the seed's load harness sizing.
	batchTuples = 64
	// zipfS is the skew of bulk codes over codeSpace-1 codes: skewed
	// enough that about 80% of bulk tuples clear l = 10 in batches of 1024.
	zipfS = 1.5
	// fetchRate is the rate of conditional model polls (1/s) beside the
	// open loop; they detect freshness probes, so it bounds freshness'
	// resolution at 10 ms.
	fetchRate = 100
	// Device sessions: a pool of devices simulated devices, each session
	// sessionT interactions (the paper's T = 20, P = 0.5) reported in
	// windows of reportWindow with probability participation.
	devices       = 64
	sessionT      = 20
	participation = 0.5
	reportWindow  = 5
	// probeCode is reserved for freshness probes: bulk traffic draws codes
	// below it and the device encoder has one centroid fewer than
	// codeSpace, so nothing else ever lands on it.
	probeCode = codeSpace - 1
	// setupReps is how many times a run launches its nodes and fits the
	// encoder; setup_s is the median.
	setupReps = 7
	// populationSeed fixes what a workload is rather than how a run draws
	// from it: the device encoder and the device population (homes and
	// preferred actions). --seed drives every other random draw.
	populationSeed = 20200302
	fitSamples     = 4096
	fitIters       = 8
	// rounds is how many times a run cycles through its three phases.
	rounds = 6
	// warmShare of every phase is not sampled, so the switch from the
	// previous phase (and, in the first round, connection set-up and
	// first-touch page faults) stays out of the figures.
	warmShare = 0.1
)

// topo is the node layout a workload drives.
type topo int

const (
	topoDurable topo = iota // one combined node, WAL with fsync per append
	topoRelay               // durable relay (interval fsync) -> in-memory analyzer over /peer/ingest
	topoMemory              // one in-memory combined node
)

// workload is one named traffic mix. Every run cycles through the same
// three phases — closed-loop saturation, fixed-rate open loop, closed-loop
// device sessions — with the shares of --seconds given here, so every
// end-to-end metric is measured on every workload; the shares and rates
// decide which layer does most of the work.
type workload struct {
	Name string
	Topo topo
	// Threshold is the crowd-blending threshold l, Batch the shuffler
	// batch size; together with zipfS they are chosen so most bulk tuples
	// clear l.
	Threshold int
	Batch     int
	// Phase shares of --seconds.
	Sat, Open, Dev float64
	// OpenRate is the Poisson arrival rate of ingest POSTs in the open-loop
	// phase (batches/s).
	OpenRate float64
	// DevicesMoveModel requires device reports alone to advance the model
	// version at least rounds times across the device phases.
	DevicesMoveModel bool
}

var workloads = []workload{
	{
		Name: "durable-ingest", Topo: topoDurable,
		Threshold: 10, Batch: 1024,
		Sat: 0.3, Open: 0.5, Dev: 0.2,
		OpenRate: 250,
	},
	{
		Name: "relay-fleet", Topo: topoRelay,
		Threshold: 10, Batch: 1024,
		Sat: 0.3, Open: 0.5, Dev: 0.2,
		OpenRate: 250,
	},
	{
		Name: "device-sync", Topo: topoMemory,
		Threshold: 5, Batch: 512,
		Sat: 0.2, Open: 0.2, Dev: 0.6,
		OpenRate:         200,
		DevicesMoveModel: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
