package main

import "fmt"

// checkOutputs compares what the nodes report with what the generator
// sent and returns every violated invariant.
//
//   - Every acknowledged tuple entered the ingest shuffler, and each one is
//     forwarded, thresholded away or still pending.
//   - Combined node: the server ingested exactly what the shuffler
//     forwarded, and the served tabular model holds exactly that mass.
//   - Relay: the forwarder shipped exactly what the relay's shuffler
//     forwarded, with no drops and no duplicates, and the analyzer
//     ingested and serves exactly that.
//   - Devices: every session warm-started without degrading, and every
//     disclosed report reached the node.
//   - Where the workload says so, device reports alone advanced the model
//     version at least once per device phase on average (the shuffler's
//     bulk leftovers are flushed before each device phase and no probe
//     runs during one).
func checkOutputs(w workload, st endState, res *results, acked int64) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	sh := st.Shuffler
	if sh.Received != acked {
		fail("shuffler received %d tuples, generator had %d acknowledged", sh.Received, acked)
	}
	if sh.Forwarded+sh.Dropped+int64(sh.Pending) != sh.Received {
		fail("shuffler forwarded %d + dropped %d + pending %d != received %d", sh.Forwarded, sh.Dropped, sh.Pending, sh.Received)
	}
	delivered := sh.Forwarded
	if w.Topo == topoRelay {
		if st.Forward.Tuples != sh.Forwarded {
			fail("relay forwarder shipped %d tuples, relay shuffler forwarded %d", st.Forward.Tuples, sh.Forwarded)
		}
		if st.Forward.Dropped != 0 || st.Forward.Duplicates != 0 || st.RelayDups != 0 {
			fail("relay hop dropped %d batches, %d duplicate-acked, analyzer suppressed %d",
				st.Forward.Dropped, st.Forward.Duplicates, st.RelayDups)
		}
		delivered = st.Forward.Tuples
	}
	if st.TuplesIngested != delivered {
		fail("server ingested %d tuples, %d were delivered to it", st.TuplesIngested, delivered)
	}
	if st.Mass != float64(st.TuplesIngested) {
		fail("served model holds mass %.0f, server ingested %d", st.Mass, st.TuplesIngested)
	}
	if res.coldSessions != 0 {
		fail("%d device sessions did not warm-start", res.coldSessions)
	}
	if res.disclosed != res.reported || res.droppedReport != 0 {
		fail("devices disclosed %d reports, transport accepted %d and dropped %d", res.disclosed, res.reported, res.droppedReport)
	}
	if w.DevicesMoveModel && res.deviceAdvances < rounds {
		fail("device reports cleared the threshold %d times in %d device phases, want at least %d", res.deviceAdvances, rounds, rounds)
	}
	return bad
}
