package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"gbcr/internal/blcr"
	"gbcr/internal/cr/protocol"
	"gbcr/internal/harness"
	"gbcr/internal/ib"
	"gbcr/internal/mpi"
	"gbcr/internal/obs"
	"gbcr/internal/sim"
	"gbcr/internal/storage"
	"gbcr/internal/storage/tier"
	"gbcr/internal/workload"
)

// The ladder is one small driver per rung. A driver calls only its layer's
// public API on a fresh kernel, does a fixed number of operations, and
// reports host cost per operation. Rungs are fixed-count, not calibrated, so
// allocations per operation repeat exactly and times compare across commits.

// cost is host cost per operation.
type cost struct {
	ns     float64
	allocs float64
	bytes  float64
}

// meter accumulates host time and allocation over the timed sections of one
// rung sample; fixture building between sections is not charged.
type meter struct {
	ns     int64
	allocs uint64
	bytes  uint64
}

// time charges fn to the meter. A collection first, so every section starts
// from a collected heap and the fixture's garbage is not fn's.
func (m *meter) time(fn func()) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t := time.Now()
	fn()
	m.ns += int64(time.Since(t))
	runtime.ReadMemStats(&after)
	m.allocs += after.Mallocs - before.Mallocs
	m.bytes += after.TotalAlloc - before.TotalAlloc
}

func (m *meter) per(ops int) cost {
	n := float64(ops)
	return cost{float64(m.ns) / n, float64(m.allocs) / n, float64(m.bytes) / n}
}

// A rung measures one driver and names the metrics it yields. run does ops
// operations and returns one value per metric.
type rung struct {
	metrics []metricDef
	ops     int // operations at full size
	run     func(ops int) ([]float64, error)
}

type metricDef struct{ name, unit string }

func defs(pairs ...string) []metricDef {
	out := make([]metricDef, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, metricDef{pairs[i], pairs[i+1]})
	}
	return out
}

// ladderSamples is how many times each rung runs; the median is reported.
const ladderSamples = 5

// quickLadder is the divisor a traced run applies to every rung's operation
// count (and it takes 3 samples, not 5): the traced run needs the ladder only
// to explain its own spans, and must fit in one run's time.
const quickLadder = 20

var ladder = []rung{
	{defs("sim.event_ns", "ns", "sim.event_allocs", "count"), 6_000_000, simEvent},
	{defs("sim.proc_switch_ns", "ns"), 400_000, simProcSwitch},
	{defs("sim.sleep_ns", "ns"), 800_000, simSleep},
	{defs("sim.spawn_ns", "ns"), 200_000, simSpawn},
	{defs("sim.cancel_ns", "ns"), 30_000_000, simCancel},
	{defs("ib.connect_ns", "ns", "ib.disconnect_ns", "ns"), 40_000, ibConnect},
	{defs("ib.send_64b_ns", "ns"), 2_500_000, ibSend(64)},
	{defs("ib.send_1m_ns", "ns"), 2_500_000, ibSend(1 << 20)},
	{defs("mpi.pingpong_8b_ns", "ns"), 100_000, func(n int) ([]float64, error) {
		c, err := mpiPingPong(n, 8, false)
		return []float64{c.ns}, err
	}},
	{defs("mpi.pingpong_1m_ns", "ns", "mpi.pingpong_1m_alloc_b", "B"), 50_000, func(n int) ([]float64, error) {
		c, err := mpiPingPong(n, 1<<20, false)
		return []float64{c.ns, c.bytes}, err
	}},
	{defs("mpi.allreduce32_ns", "ns"), 4_000, mpiAllreduce32},
	{defs("mpi.bcast32_1m_ns", "ns", "mpi.bcast32_1m_alloc_b", "B"), 4_000, mpiBcast32},
	{defs("mpi.logged_send_64k_ns", "ns", "mpi.logged_send_64k_alloc_b", "B"), 10_000, func(n int) ([]float64, error) {
		c, err := mpiPingPong(n, 64<<10, true)
		return []float64{c.ns, c.bytes}, err
	}},
	{defs("storage.write_k1_ns", "ns"), 300_000, storageRung(1, false)},
	{defs("storage.write_k32_ns", "ns"), 80_000, storageRung(32, false)},
	{defs("storage.write_k256_ns", "ns"), 12_000, storageRung(256, false)},
	{defs("storage.read_k32_ns", "ns"), 80_000, storageRung(32, true)},
	{defs("tier.commit32_ram_ns", "ns"), 1_500, tierCommit32(tier.ModeRAM)},
	{defs("tier.commit32_burst_ns", "ns"), 1_500, tierCommit32(tier.ModeBurst)},
	{defs("tier.commit32_hierarchy_ns", "ns"), 1_000, tierCommit32(tier.ModeHierarchy)},
	{defs("blcr.epoch32_ns", "ns", "blcr.epoch32_alloc_b", "B"), 4_000, blcrEpoch32},
	{defs("cr.cycle32_group_ns", "ns", "cr.cycle32_group_events", "count"), 25, crCycle32(protocol.Group, true)},
	{defs("cr.cycle32_wholejob_ns", "ns"), 25, crCycle32(protocol.WholeJob, false)},
	{defs("cr.cycle32_uncoord_ns", "ns"), 25, crCycle32(protocol.Uncoordinated, false)},
	{defs("obs.emit_disabled_ns", "ns"), 50_000_000, obsEmit(func() *obs.Bus { return nil })},
	{defs("obs.emit_memory_ns", "ns"), 2_000_000, obsEmit(func() *obs.Bus { return obs.NewBus(&obs.MemorySink{}) })},
	{defs("obs.emit_jsonl_ns", "ns"), 500_000, obsEmit(func() *obs.Bus { return obs.NewBus(obs.NewJSONL(io.Discard)) })},
	{defs("harness.new_cluster32_ns", "ns"), 7_000, func(n int) ([]float64, error) {
		c, err := harnessNewCluster(n, 32)
		return []float64{c.ns}, err
	}},
	{defs("harness.new_cluster256_ns", "ns", "harness.new_cluster256_alloc_mb", "MB"), 1_500, func(n int) ([]float64, error) {
		c, err := harnessNewCluster(n, 256)
		return []float64{c.ns, c.bytes / (1 << 20)}, err
	}},
}

// ladderDefs lists every metric the ladder yields, in ladder order.
func ladderDefs() []metricDef {
	var out []metricDef
	for _, r := range ladder {
		out = append(out, r.metrics...)
	}
	return out
}

// runLadder runs every rung at 1/div of its full operation count and returns
// the median of its samples.
func runLadder(div int) ([]metric, error) {
	samples := ladderSamples
	if div > 1 {
		samples = 3
	}
	var out []metric
	for _, r := range ladder {
		ops := r.ops / div
		if ops < 1 {
			ops = 1
		}
		vals := make([][]float64, len(r.metrics))
		for s := 0; s < samples; s++ {
			v, err := r.run(ops)
			if err != nil {
				return nil, fmt.Errorf("ladder rung %s: %w", r.metrics[0].name, err)
			}
			if len(v) != len(r.metrics) {
				return nil, fmt.Errorf("ladder rung %s: %d values for %d metrics", r.metrics[0].name, len(v), len(r.metrics))
			}
			for i := range v {
				vals[i] = append(vals[i], v[i])
			}
		}
		for i, d := range r.metrics {
			out = append(out, metric{d.name, median(vals[i]), d.unit})
		}
	}
	return out, nil
}

// ---- sim ----

// simEvent: 64 self-rescheduling K.After chains, so the queue holds 64
// events; an operation is one schedule-and-fire.
func simEvent(ops int) ([]float64, error) {
	const chains = 64
	k := sim.NewKernel(1)
	left := ops
	var fire func()
	fire = func() {
		if left > 0 {
			left--
			k.After(sim.Microsecond, fire)
		}
	}
	for i := 0; i < chains; i++ {
		k.After(sim.Time(i), fire)
	}
	var m meter
	var err error
	m.time(func() { err = k.Run() })
	c := m.per(ops + chains)
	return []float64{c.ns, c.allocs}, err
}

// simProcSwitch: two procs hand control back and forth; an operation is one
// Unpark/Park round trip (two process switches through the kernel).
func simProcSwitch(ops int) ([]float64, error) {
	k := sim.NewKernel(1)
	var a, b *sim.Proc
	a = k.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			b.Unpark()
			p.Park("ping")
		}
	})
	b = k.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			p.Park("pong")
			a.Unpark()
		}
	})
	var m meter
	var err error
	m.time(func() { err = k.Run() })
	return []float64{m.per(ops).ns}, err
}

// simSleep: 32 procs each sleep in a loop; an operation is one Proc.Sleep.
func simSleep(ops int) ([]float64, error) {
	const procs = 32
	each := ops / procs
	if each < 1 {
		each = 1
	}
	k := sim.NewKernel(1)
	for i := 0; i < procs; i++ {
		k.Spawn("sleeper", func(p *sim.Proc) {
			for j := 0; j < each; j++ {
				p.Sleep(sim.Microsecond)
			}
		})
	}
	var m meter
	var err error
	m.time(func() { err = k.Run() })
	return []float64{m.per(each * procs).ns}, err
}

// simSpawn: procs with an empty body, spawned in batches of 1000 from an
// event chain so live goroutine stacks stay bounded; an operation is one
// Spawn through to the proc's exit.
func simSpawn(ops int) ([]float64, error) {
	const batch = 1000
	k := sim.NewKernel(1)
	left := ops
	var next func()
	next = func() {
		for i := 0; i < batch && left > 0; i++ {
			left--
			k.Spawn("p", func(*sim.Proc) {})
		}
		if left > 0 {
			k.After(sim.Microsecond, next)
		}
	}
	k.After(0, next)
	var m meter
	var err error
	m.time(func() { err = k.Run() })
	return []float64{m.per(ops).ns}, err
}

// simCancel: an operation schedules one event and cancels it.
func simCancel(ops int) ([]float64, error) {
	k := sim.NewKernel(1)
	noop := func() {}
	var m meter
	var err error
	m.time(func() {
		for i := 0; i < ops; i++ {
			k.After(sim.Second, noop).Cancel()
		}
		err = k.Run()
	})
	return []float64{m.per(ops).ns}, err
}

// ---- ib ----

// ibPairs builds a fabric of 2*pairs endpoints that process arrivals at once.
func ibPairs(pairs int) (*sim.Kernel, []*ib.Endpoint, error) {
	k := sim.NewKernel(1)
	f, err := ib.New(k, ib.PaperConfig())
	if err != nil {
		return nil, nil, err
	}
	eps := make([]*ib.Endpoint, 2*pairs)
	for i := range eps {
		ep, err := f.AddEndpoint(i)
		if err != nil {
			return nil, nil, err
		}
		ep.OnWork = ep.Progress
		eps[i] = ep
	}
	return k, eps, nil
}

// ibConnect: an operation is one pair's three-way handshake to
// StateConnected, then one pair's flush-and-disconnect back to closed.
func ibConnect(ops int) ([]float64, error) {
	k, eps, err := ibPairs(ops)
	if err != nil {
		return nil, err
	}
	var up, down meter
	up.time(func() {
		for i := 0; i < ops && err == nil; i++ {
			err = eps[i].Connect(ops+i, 0)
		}
		if err == nil {
			err = k.Run()
		}
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < ops; i++ {
		if !eps[i].Connected(ops+i) || !eps[ops+i].Connected(i) {
			return nil, fmt.Errorf("pair %d not connected after handshake", i)
		}
	}
	down.time(func() {
		for i := 0; i < ops; i++ {
			eps[i].Disconnect(ops + i)
		}
		err = k.Run()
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < ops; i++ {
		if s := eps[i].State(ops + i); s != ib.StateClosed {
			return nil, fmt.Errorf("pair %d is %v after disconnect", i, s)
		}
	}
	return []float64{up.per(ops).ns, down.per(ops).ns}, nil
}

// ibSend: one connected pair bounces a message of the given wire size; an
// operation is one delivered Endpoint.Send.
func ibSend(size int64) func(int) ([]float64, error) {
	return func(ops int) ([]float64, error) {
		k, eps, err := ibPairs(1)
		if err != nil {
			return nil, err
		}
		a, b := eps[0], eps[1]
		if err := a.Connect(1, 0); err != nil {
			return nil, err
		}
		if err := k.Run(); err != nil {
			return nil, err
		}
		left := ops
		var sendErr error
		bounce := func(from *ib.Endpoint, to int) func(int, int64, any) {
			return func(int, int64, any) {
				if left > 0 && sendErr == nil {
					left--
					sendErr = from.Send(to, size, nil)
				}
			}
		}
		a.OnMessage = bounce(a, 1)
		b.OnMessage = bounce(b, 0)
		var m meter
		m.time(func() {
			left--
			sendErr = a.Send(1, size, nil)
			err = k.Run()
		})
		if err == nil {
			err = sendErr
		}
		if err == nil && a.Stats().MessagesSent+b.Stats().MessagesSent != ops {
			err = fmt.Errorf("sent %d messages, want %d", a.Stats().MessagesSent+b.Stats().MessagesSent, ops)
		}
		return []float64{m.per(ops).ns}, err
	}
}

// ---- mpi ----

func mpiJob(n int, cfg mpi.Config) (*sim.Kernel, *mpi.Job, error) {
	k := sim.NewKernel(1)
	f, err := ib.New(k, ib.PaperConfig())
	if err != nil {
		return nil, nil, err
	}
	j, err := mpi.NewJob(k, f, cfg, n)
	return k, j, err
}

// mpiPingPong: two ranks exchange a payload of the given size; an operation
// is one round trip (Send+Recv on each side). With logging every payload is
// copied into the sender log and kept, so the run is cut into jobs of 1000
// round trips to bound what is live.
func mpiPingPong(ops, size int, logged bool) (cost, error) {
	cfg := mpi.DefaultConfig()
	cfg.LogMessages = logged
	perJob := ops
	if logged && perJob > 1000 {
		perJob = 1000
	}
	var m meter
	done := 0
	for done < ops {
		n := perJob
		if ops-done < n {
			n = ops - done
		}
		k, j, err := mpiJob(2, cfg)
		if err != nil {
			return cost{}, err
		}
		payload := make([]byte, size)
		j.Launch(0, func(e *mpi.Env) {
			w := e.World()
			for i := 0; i < n; i++ {
				e.Send(w, 1, 0, payload)
				e.Recv(w, 1, 0)
			}
		})
		j.Launch(1, func(e *mpi.Env) {
			w := e.World()
			for i := 0; i < n; i++ {
				e.Recv(w, 0, 0)
				e.Send(w, 0, 0, payload)
			}
		})
		m.time(func() { err = k.Run() })
		if err != nil {
			return cost{}, err
		}
		done += n
	}
	return m.per(ops), nil
}

// mpiAllreduce32: an operation is one 32-rank AllreduceF64 of one value.
func mpiAllreduce32(ops int) ([]float64, error) {
	k, j, err := mpiJob(32, mpi.DefaultConfig())
	if err != nil {
		return nil, err
	}
	j.LaunchAll(func(e *mpi.Env) {
		w := e.World()
		in := []float64{float64(e.Rank())}
		for i := 0; i < ops; i++ {
			e.AllreduceF64(w, in, mpi.OpSum)
		}
	})
	var m meter
	m.time(func() { err = k.Run() })
	return []float64{m.per(ops).ns}, err
}

// mpiBcast32: an operation is one 32-rank Bcast of 1 MiB from rank 0.
func mpiBcast32(ops int) ([]float64, error) {
	k, j, err := mpiJob(32, mpi.DefaultConfig())
	if err != nil {
		return nil, err
	}
	j.LaunchAll(func(e *mpi.Env) {
		w := e.World()
		var data []byte
		if e.Rank() == 0 {
			data = make([]byte, 1<<20)
		}
		for i := 0; i < ops; i++ {
			e.Bcast(w, 0, data)
		}
	})
	var m meter
	m.time(func() { err = k.Run() })
	c := m.per(ops)
	return []float64{c.ns, c.bytes}, err
}

// ---- storage ----

// storageRung: k procs each issue 1 MB transfers back to back, so k are in
// flight and every completion recomputes k rates; an operation is one
// completed Write (or Read).
func storageRung(k int, read bool) func(int) ([]float64, error) {
	return func(ops int) ([]float64, error) {
		kern := sim.NewKernel(1)
		st, err := storage.New(kern, storage.PaperConfig())
		if err != nil {
			return nil, err
		}
		each := ops / k
		if each < 1 {
			each = 1
		}
		var opErr error
		for i := 0; i < k; i++ {
			kern.Spawn("client", func(p *sim.Proc) {
				for j := 0; j < each && opErr == nil; j++ {
					if read {
						_, opErr = st.Read(p, storage.MB)
					} else {
						_, opErr = st.Write(p, storage.MB)
					}
				}
			})
		}
		var m meter
		m.time(func() { err = kern.Run() })
		if err == nil {
			err = opErr
		}
		if err == nil && st.Transfers() != each*k {
			err = fmt.Errorf("%d transfers completed, want %d", st.Transfers(), each*k)
		}
		return []float64{m.per(each * k).ns}, err
	}
}

// ---- tier ----

// tierCommit32: an operation is one 32-rank epoch through the hierarchy:
// StartWrite for every rank, acknowledgement at the fastest tier, the drain
// chain down to central, and CheckCommit. The hierarchy is rebuilt every 50
// epochs: releasing a rank's older RAM copies walks every earlier epoch, so
// the cost of an epoch grows with its number, and a job here takes a handful
// of checkpoints, not thousands.
func tierCommit32(mode tier.Mode) func(int) ([]float64, error) {
	return func(ops int) ([]float64, error) {
		const ranks, size, perJob = 32, 32 << 20, 50
		var m meter
		for done := 0; done < ops; done += perJob {
			k := sim.NewKernel(1)
			central, err := storage.New(k, storage.PaperConfig())
			if err != nil {
				return nil, err
			}
			h, err := tier.NewHierarchy(k, tier.Config{Mode: mode}, ranks, central, ib.PaperConfig().LinkBW)
			if err != nil {
				return nil, err
			}
			h.Bind(blcr.NewStore(ranks))
			m.time(func() {
				for epoch := 1; epoch <= perJob && done+epoch <= ops && err == nil; epoch++ {
					epoch := epoch
					k.After(0, func() {
						for r := 0; r < ranks && err == nil; r++ {
							_, err = h.StartWrite(epoch, r, size)
						}
					})
					if runErr := k.Run(); err == nil {
						err = runErr
					}
					if err == nil {
						err = h.CheckCommit(epoch)
					}
				}
			})
			if err != nil {
				return nil, err
			}
		}
		return []float64{m.per(ops).ns}, nil
	}
}

// ---- blcr ----

// blcrEpoch32: an operation is one archived epoch: 32 snapshots with small
// application and library state built and Put, MarkComplete, and
// LatestVerified. The store is replaced every 100 epochs to bound it.
func blcrEpoch32(ops int) ([]float64, error) {
	const ranks = 32
	app, lib := make([]byte, 64), make([]byte, 512)
	var err error
	var m meter
	m.time(func() {
		var st *blcr.Store
		for i := 0; i < ops && err == nil; i++ {
			if i%100 == 0 {
				st = blcr.NewStore(ranks)
			}
			epoch := i%100 + 1
			for r := 0; r < ranks && err == nil; r++ {
				err = st.Put(blcr.New(r, epoch, sim.Time(i), 32<<20, app, lib))
			}
			if err == nil {
				err = st.MarkComplete(epoch)
			}
			if got, _, _ := st.LatestVerified(); err == nil && got != epoch {
				err = fmt.Errorf("latest verified epoch %d, want %d", got, epoch)
			}
		}
	})
	c := m.per(ops)
	return []float64{c.ns, c.bytes}, err
}

// ---- cr ----

// crCycle32: a 32-rank CommGroups run with one checkpoint cycle minus the
// same run without; an operation is one such pair. Reports the host time
// and, withEvents, the kernel events one cycle adds.
func crCycle32(kind protocol.Kind, withEvents bool) func(int) ([]float64, error) {
	return func(ops int) ([]float64, error) {
		w := workload.CommGroups{
			N: 32, CommGroupSize: 8, Iters: 100,
			Chunk: 100 * sim.Millisecond, FootprintMB: 16,
		}
		cfg := harness.PaperCluster(w.N)
		cfg.CR.Protocol = kind
		cfg.CR.GroupSize = 8
		if kind != protocol.Group {
			cfg.CR.GroupSize = 0
		}
		if kind == protocol.Uncoordinated {
			cfg.CR.HelperEnabled = false
			cfg.MPI.LogMessages = true
		}
		var with, without meter
		var events [2]uint64
		for i := 0; i < ops; i++ {
			for side, m := range []*meter{&without, &with} {
				x := newState()
				at := sim.Time(-1)
				if side == 1 {
					at = sim.Second
				}
				var c *harness.Cluster
				var err error
				m.time(func() { c, _, err = x.runCell(cfg, w, at) })
				if err != nil {
					return nil, err
				}
				events[side] = c.K.EventsProcessed()
			}
		}
		out := []float64{(float64(with.ns) - float64(without.ns)) / float64(ops)}
		if withEvents {
			out = append(out, float64(events[1])-float64(events[0]))
		}
		return out, nil
	}
}

// ---- obs ----

// emitBus keeps the bus out of the compiler's sight so the disabled path is
// measured as a call site pays it, not folded away.
var emitBus *obs.Bus

// obsEmit: an operation is one Bus.Emit of a typical event.
func obsEmit(newBus func() *obs.Bus) func(int) ([]float64, error) {
	return func(ops int) ([]float64, error) {
		emitBus = newBus()
		var m meter
		m.time(func() {
			for i := 0; i < ops; i++ {
				emitBus.Emit(obs.Event{At: sim.Time(i), Rank: i & 31, Layer: obs.LayerMPI,
					Type: obs.Instant, What: obs.KindMatchEager, Arg: int64(i)})
			}
		})
		emitBus = nil
		return []float64{m.per(ops).ns}, nil
	}
}

// ---- harness ----

// harnessNewCluster: an operation is one harness.NewCluster of n ranks.
func harnessNewCluster(ops, n int) (cost, error) {
	cfg := harness.PaperCluster(n)
	var err error
	var m meter
	m.time(func() {
		for i := 0; i < ops && err == nil; i++ {
			_, err = harness.NewCluster(cfg)
		}
	})
	return m.per(ops), err
}
