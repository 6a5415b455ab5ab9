package main

import (
	"runtime"
	"runtime/metrics"

	"gbcr/internal/obs"
)

// gcCPUSeconds is the CPU time the collector has used so far.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// measureTraced is a traced run: one set-up round, then pairs of an untraced
// and a traced repetition (both verified against the same digest) for half
// of cfg.seconds, then the quick ladder. It reports the per-layer metrics of
// the last traced repetition and writes its spans to out when out is set.
func measureTraced(cfg runConfig, out string) (*runResult, error) {
	s, err := newSession(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.setupRound(); err != nil {
		return nil, err
	}
	res := s.res

	var plain, traced []float64
	var tr *tracer
	var bus *obs.Bus
	var sink *countSink
	var x *repState
	var before, after runtime.MemStats
	var gcCPU float64
	var measured float64
	for pair := 0; pair == 0 || (cfg.reps == 0 && measured < cfg.seconds/2) || pair < cfg.reps; pair++ {
		wall, _ := s.repetition(nil, nil)
		plain = append(plain, wall)
		measured += wall

		tr, sink = newTracer(), &countSink{}
		bus = obs.NewBus(sink)
		runtime.ReadMemStats(&before)
		gcCPU = gcCPUSeconds()
		wall, x = s.repetition(tr, bus)
		gcCPU = gcCPUSeconds() - gcCPU
		runtime.ReadMemStats(&after)
		traced = append(traced, wall)
		measured += wall
	}
	res.WallS = traced
	res.Reps = len(traced)
	if out != "" {
		if err := tr.write(out); err != nil {
			return nil, err
		}
	}

	div := cfg.ladderDiv
	if div < 1 {
		div = quickLadder
	}
	rungs, err := runLadder(div)
	if err != nil {
		return nil, err
	}
	res.Metrics = append(rungs, layerMetrics(tr, bus, sink, x.counts)...)
	res.Metrics = append(res.Metrics,
		metric{"obs.trace_overhead_ratio", median(traced) / median(plain), "ratio"},
		metric{"runtime.gc_cycles", float64(after.NumGC - before.NumGC), "count"},
		metric{"runtime.gc_pause_ms", float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6, "ms"},
		metric{"runtime.gc_cpu_fraction", gcCPU / traced[len(traced)-1], "ratio"},
	)
	res.Metrics = append(res.Metrics, explain(res.Metrics)...)
	return res, nil
}

// layerMetrics turns one traced repetition's spans, bus registry and own
// counts into the per-layer metrics. Counts are simulated-side and repeat
// exactly; the *_s and *_ns values are host-side diagnostics.
func layerMetrics(tr *tracer, bus *obs.Bus, sink *countSink, c traceCounts) []metric {
	reg := bus.Metrics()
	count := func(l obs.Layer, name string) float64 { return float64(reg.Counter(l, name).Value()) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	runS := float64(c.runNs) / 1e9
	individual := reg.Histogram(obs.LayerCR, "individual")
	ibBytes := count(obs.LayerIB, "bytes")
	return []metric{
		{"harness.cells", float64(c.cells), "count"},
		{"harness.restarts", float64(c.restarts), "count"},
		{"harness.span_assemble_s", float64(tr.selfNs("harness.NewCluster")+tr.selfNs("workload.Launch")) / 1e9, "s"},
		{"harness.span_run_s", runS, "s"},
		{"harness.span_report_s", float64(tr.selfNs("cr.Reports")) / 1e9, "s"},

		{"sim.events", float64(c.events), "count"},
		{"sim.parks", count(obs.LayerKernel, "parks"), "count"},
		{"sim.procs_spawned", count(obs.LayerKernel, "procs_spawned"), "count"},
		{"sim.host_ns_per_event", ratio(float64(c.kernelRunNs), float64(c.events)), "ns"},
		{"sim.simsec_per_hostsec", ratio(c.simTime.Seconds(), runS), "ratio"},

		{"ib.msgs", count(obs.LayerIB, "msgs"), "count"},
		{"ib.bytes", ibBytes, "B"},
		{"ib.oob_msgs", count(obs.LayerIB, "oob_msgs"), "count"},
		{"ib.connects", count(obs.LayerIB, "connects"), "count"},
		{"ib.disconnects", count(obs.LayerIB, "disconnects"), "count"},
		{"ib.retransmits", count(obs.LayerIB, "retransmits"), "count"},

		{"mpi.eager_sent", count(obs.LayerMPI, "eager_sent"), "count"},
		{"mpi.rendezvous_sent", count(obs.LayerMPI, "rendezvous_sent"), "count"},
		{"mpi.msgs_buffered", count(obs.LayerMPI, "msgs_buffered"), "count"},
		{"mpi.bytes_logged", float64(c.bytesLogged), "B"},
		{"mpi.alloc_b_per_payload_b", ratio(float64(c.runAllocB), ibBytes), "ratio"},

		{"storage.transfers", count(obs.LayerStorage, "transfers"), "count"},
		{"storage.reads", count(obs.LayerStorage, "reads"), "count"},
		{"storage.bytes", count(obs.LayerStorage, "bytes"), "B"},
		{"storage.rate_recomputes", count(obs.LayerStorage, "rate_recomputes"), "count"},
		{"storage.max_concurrent", float64(c.maxConcurrent), "count"},
		{"storage.xfer_aborts", count(obs.LayerStorage, "xfer_aborts"), "count"},

		{"tier.writes_ram", count(obs.LayerStorage, "tier_writes_ram"), "count"},
		{"tier.writes_burst", count(obs.LayerStorage, "tier_writes_burst"), "count"},
		{"tier.drains", count(obs.LayerStorage, "tier_drains_burst") + count(obs.LayerStorage, "tier_drains_central"), "count"},
		{"tier.drain_failures", count(obs.LayerStorage, "tier_drain_failures"), "count"},

		{"blcr.snapshots", count(obs.LayerCR, "snapshots"), "count"},
		{"blcr.snapshot_bytes", count(obs.LayerCR, "snapshot_bytes"), "B"},

		{"cr.cycles", count(obs.LayerCR, "cycles"), "count"},
		{"cr.cycle_aborts", count(obs.LayerCR, "cycle_aborts"), "count"},
		{"cr.sim_individual_mean_s", individual.Mean().Seconds(), "s"},
		{"cr.sim_storage_share", ratio(float64(reg.Histogram(obs.LayerCR, "storage_write").Sum()), float64(individual.Sum())), "ratio"},

		{"fault.injected", count(obs.LayerFault, "injected"), "count"},

		{"obs.events_emitted", float64(sink.n), "count"},
	}
}

// tracedDefs lists the metrics a traced run yields beyond the ladder, in
// output order.
func tracedDefs() []metricDef {
	var out []metricDef
	for _, m := range layerMetrics(newTracer(), obs.NewBus(), &countSink{}, traceCounts{}) {
		out = append(out, metricDef{m.Name, m.Unit})
	}
	return append(out, defs(
		"obs.trace_overhead_ratio", "ratio",
		"runtime.gc_cycles", "count", "runtime.gc_pause_ms", "ms", "runtime.gc_cpu_fraction", "ratio",
		"ladder.explained_share", "ratio", "ladder.unexplained_share", "ratio")...)
}

// explain prices the traced repetition's counts with the ladder's rungs and
// compares the sum with the host time the run spans took. Every kernel event
// is charged once: a proc wake-up at half a Park/Unpark round trip, a message
// arrival at one delivered ib send, any other event at one K.After. Set-up
// and teardown of connections and storage transfers are charged per item on
// top. What the rungs do not reach (mpi matching and collectives, the
// workloads' own code, buffer allocation and clearing, collection) is the
// unexplained share: printed, not hidden.
func explain(ms []metric) []metric {
	v := make(map[string]float64, len(ms))
	for _, m := range ms {
		v[m.Name] = m.Value
	}
	wakes := v["sim.parks"] + v["sim.procs_spawned"]
	arrivals := v["ib.msgs"] + v["ib.oob_msgs"]
	other := v["sim.events"] - wakes - arrivals
	if other < 0 {
		other = 0 // scenario runs hand back no kernel, so their events are not counted
	}
	ns := other*v["sim.event_ns"] +
		v["sim.parks"]*v["sim.proc_switch_ns"]/2 +
		v["sim.procs_spawned"]*v["sim.spawn_ns"] +
		arrivals*v["ib.send_64b_ns"] +
		v["ib.connects"]*v["ib.connect_ns"] +
		v["ib.disconnects"]*v["ib.disconnect_ns"] +
		(v["storage.transfers"]+v["storage.reads"])*v["storage.write_k32_ns"]
	share := 0.0
	if run := v["harness.span_run_s"] * 1e9; run > 0 {
		share = ns / run
	}
	return []metric{
		{"ladder.explained_share", share, "ratio"},
		{"ladder.unexplained_share", 1 - share, "ratio"},
	}
}
