package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/apps/bfs"
	"repro/internal/dvswitch"
	"repro/internal/fftkernel"
	"repro/internal/ib"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/vic"
)

// A rung times calls into one layer's public API on inputs shaped like the
// workload. start builds the rung and returns op, which does a slice of
// work and returns how many units (events, packets, words, ...) it
// completed, and stop, which releases everything the rung started.
type rung struct {
	name   string // time metric, per unit of work
	allocs string // allocation metric, per unit of work
	unit   string // "ns" or "us"
	start  func(s ladderShape, nodes int, seed uint64) (op func() int, stop func())
}

// rungs is the ladder, cheapest layer first. None of them touches the
// cross-checking knobs (Core.Dense, SetScalarBoundary, SetFanPool).
var rungs = []rung{
	{"sim.event_ns", "sim.event_allocs", "ns", rungSimEvent},
	{"sim.proc_switch_ns", "sim.proc_switch_allocs", "ns", rungProcSwitch},
	{"dvswitch.fast_inject_ns", "dvswitch.fast_inject_allocs", "ns", rungFastInject},
	{"dvswitch.core_step_ns", "dvswitch.core_step_allocs", "ns", rungCoreStep},
	{"dvswitch.core_drain_ns_per_pkt", "dvswitch.core_drain_allocs_per_pkt", "ns", rungCoreDrain},
	{"vic.pio_send_ns_per_word", "vic.pio_send_allocs_per_word", "ns", rungVICSend(vic.PIO)},
	{"vic.dma_send_ns_per_word", "vic.dma_send_allocs_per_word", "ns", rungVICSend(vic.DMACached)},
	{"vic.receive_ns_per_pkt", "vic.receive_allocs_per_pkt", "ns", rungVICReceive},
	{"mpi.alltoall_us", "mpi.alltoall_allocs", "us", rungAlltoall},
	{"app.bfs_gen_edge_ns", "app.bfs_gen_edge_allocs", "ns", rungGenEdge},
	{"app.fft_forward_us", "app.fft_forward_allocs", "us", rungFFTForward},
}

// Each rung is timed in ladderBlocks blocks of at least ladderBlock after
// one warm-up block; the median block is reported.
const (
	ladderBlocks = 5
	ladderBlock  = 40 * time.Millisecond
)

// measureRung returns the rung's median time (in its unit) and allocations
// per unit of work.
func measureRung(r rung, s ladderShape, nodes int, seed uint64) (perUnit, allocs float64) {
	op, stop := r.start(s, nodes, seed)
	defer stop()
	block := func() (ns, mallocs float64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		units := 0
		t0 := time.Now()
		for time.Since(t0) < ladderBlock || units == 0 {
			units += op()
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		return float64(el.Nanoseconds()) / float64(units), float64(m1.Mallocs-m0.Mallocs) / float64(units)
	}
	block()
	ns := make([]float64, ladderBlocks)
	al := make([]float64, ladderBlocks)
	for i := range ns {
		ns[i], al[i] = block()
	}
	perUnit = median(ns)
	if r.unit == "us" {
		perUnit /= 1e3
	}
	return perUnit, median(al)
}

// median returns the middle value of xs (mean of the middle two for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// rungSimEvent keeps queueDepth events pending; every fired event
// reschedules itself 1-64 switch cycles ahead through AtArg, so one unit is
// one event fired at a constant queue depth.
func rungSimEvent(s ladderShape, _ int, seed uint64) (func() int, func()) {
	k := sim.NewKernel()
	k.HintTimeGrain(dvswitch.DefaultCycleTime)
	rng := sim.NewRNG(seed)
	delay := func() sim.Time { return sim.Time(1+rng.Uint64n(64)) * dvswitch.DefaultCycleTime }
	var fire func(any)
	fire = func(a any) { k.AtArg(k.Now()+delay(), fire, a) }
	for i := 0; i < s.queueDepth; i++ {
		k.AtArg(delay(), fire, nil)
	}
	return func() int { return k.RunUntilN(sim.Forever, 1024) }, func() {}
}

// rungProcSwitch runs one process per node, each in a Proc.Wait loop; one
// unit is one kernel-to-process resume and park.
func rungProcSwitch(_ ladderShape, nodes int, _ uint64) (func() int, func()) {
	k := sim.NewKernel()
	for i := 0; i < nodes; i++ {
		d := sim.Time(i+1) * dvswitch.DefaultCycleTime
		k.Spawn("proc", func(p *sim.Proc) {
			for {
				p.Wait(d)
			}
		})
	}
	return func() int { return k.RunUntilN(sim.Forever, 1024) }, func() { k.Finish() }
}

// randomPackets returns n packets from src to uniformly drawn destinations.
func randomPackets(rng *sim.RNG, n, src, ports int) []dvswitch.Packet {
	pkts := make([]dvswitch.Packet, n)
	for i := range pkts {
		pkts[i] = dvswitch.Packet{Src: src, Dst: rng.Intn(ports), Payload: uint64(i)}
	}
	return pkts
}

// rungFastInject injects one injectBatch-packet batch per source port into
// the fast model on the workload's geometry and fires every delivery; one
// unit is one packet.
func rungFastInject(s ladderShape, nodes int, seed uint64) (func() int, func()) {
	k := sim.NewKernel()
	geom := dvswitch.ForPorts(nodes)
	m := dvswitch.NewFastModel(k, geom, dvswitch.DefaultCycleTime, sim.NewRNG(seed))
	m.OnDeliver(func(dvswitch.Packet) {})
	rng := sim.NewRNG(seed + 1)
	ports := geom.Ports()
	batches := make([][]dvswitch.Packet, nodes)
	for src := range batches {
		batches[src] = randomPackets(rng, s.injectBatch, src, ports)
	}
	return func() int {
		for _, b := range batches {
			m.InjectBatch(b)
		}
		k.RunUntil(sim.Forever)
		return nodes * s.injectBatch
	}, func() {}
}

// allToAll returns one packet from every node to every other node.
func allToAll(nodes int) []dvswitch.Packet {
	pkts := make([]dvswitch.Packet, 0, nodes*(nodes-1))
	for src := 0; src < nodes; src++ {
		for d := 1; d < nodes; d++ {
			pkts = append(pkts, dvswitch.Packet{Src: src, Dst: (src + d) % nodes})
		}
	}
	return pkts
}

// rungCoreStep steps the cycle-accurate core under a standing all-to-all
// population: every delivery re-injects its (src, dst) pair, so the fabric
// stays as full as during a transpose. One unit is one Core.Step.
func rungCoreStep(_ ladderShape, nodes int, _ uint64) (func() int, func()) {
	c := dvswitch.NewCore(dvswitch.ForPorts(nodes))
	c.Deliver = func(pkt dvswitch.Packet, _ int64) { c.Inject(pkt) }
	burst := allToAll(nodes)
	c.Prewarm(len(burst))
	c.InjectBatch(burst)
	for i := 0; i < 512; i++ {
		c.Step()
	}
	return func() int {
		for i := 0; i < 64; i++ {
			c.Step()
		}
		return 64
	}, func() {}
}

// rungCoreDrain injects an all-to-all burst into an empty core and steps it
// until idle; one unit is one delivered packet.
func rungCoreDrain(_ ladderShape, nodes int, _ uint64) (func() int, func()) {
	c := dvswitch.NewCore(dvswitch.ForPorts(nodes))
	delivered := 0
	c.Deliver = func(dvswitch.Packet, int64) { delivered++ }
	burst := allToAll(nodes)
	c.Prewarm(len(burst))
	return func() int {
		before := delivered
		c.InjectBatch(burst)
		c.RunUntilIdle(1 << 24)
		return delivered - before
	}, func() {}
}

// newSinkVIC wires one VIC to a fabric that only counts packets.
func newSinkVIC(k *sim.Kernel) (*vic.VIC, *int) {
	sunk := new(int)
	v := vic.New(k, 0, 0, vic.DefaultParams(), func(dvswitch.Packet) { *sunk++ })
	v.SetBatchInject(func(pkts []dvswitch.Packet) { *sunk += len(pkts) })
	return v, sunk
}

// rungVICSend has one process send wordsPerSend-word batches through
// HostSend in mode, into a counting fabric; one unit is one word sent.
func rungVICSend(mode vic.SendMode) func(ladderShape, int, uint64) (func() int, func()) {
	return func(s ladderShape, nodes int, _ uint64) (func() int, func()) {
		k := sim.NewKernel()
		v, sunk := newSinkVIC(k)
		words := make([]vic.Word, s.wordsPerSend)
		for i := range words {
			words[i] = vic.Word{Dst: 1 + i%(nodes-1), Op: vic.OpWrite, GC: vic.NoGC,
				Addr: uint32(i), Val: uint64(i)}
		}
		k.Spawn("send", func(p *sim.Proc) {
			for {
				v.HostSend(p, mode, words)
			}
		})
		return func() int {
			before := *sunk
			for *sunk == before {
				k.RunUntilN(sim.Forever, 256)
			}
			return *sunk - before
		}, func() { k.Finish() }
	}
}

// rungVICReceive delivers a wordsPerSend-packet burst of remote writes to
// one VIC and fires the receive events; one unit is one packet.
func rungVICReceive(s ladderShape, _ int, _ uint64) (func() int, func()) {
	k := sim.NewKernel()
	v, _ := newSinkVIC(k)
	pkts := make([]dvswitch.Packet, s.wordsPerSend)
	for i := range pkts {
		pkts[i] = dvswitch.Packet{Src: 1, Dst: 0,
			Header: vic.EncodeHeader(0, vic.OpWrite, vic.NoGC, uint32(i)), Payload: uint64(i)}
	}
	return func() int {
		for i := range pkts {
			v.Receive(pkts[i])
		}
		k.RunUntil(sim.Forever)
		return len(pkts)
	}, func() {}
}

// rungAlltoall runs back-to-back MPI Alltoalls of alltoallB bytes per
// destination across one rank per node on the testbed fat tree; one unit is
// one collective completed by every rank.
func rungAlltoall(s ladderShape, nodes int, _ uint64) (func() int, func()) {
	k := sim.NewKernel()
	w := mpi.NewWorld(k, ib.New(k, nodes, ib.DefaultParams()), mpi.DefaultParams())
	done := 0
	for r := 0; r < nodes; r++ {
		r := r
		k.Spawn("rank", func(p *sim.Proc) {
			c := w.Bind(r, p)
			send := make([][]byte, nodes)
			for i := range send {
				send[i] = make([]byte, s.alltoallB)
			}
			for {
				c.Alltoall(send)
				if r == 0 {
					done++
				}
			}
		})
	}
	return func() int {
		before := done
		for done == before {
			k.RunUntilN(sim.Forever, 256)
		}
		return done - before
	}, func() { k.Finish() }
}

// genEdgeSink keeps the generated edges live.
var genEdgeSink int64

// rungGenEdge generates Kronecker edges at the workload's scale; one unit
// is one edge.
func rungGenEdge(s ladderShape, _ int, seed uint64) (func() int, func()) {
	var i int64
	return func() int {
		for j := 0; j < 1024; j++ {
			u, v := bfs.GenerateEdge(seed, s.graphScale, i)
			genEdgeSink ^= u ^ v
			i++
		}
		return 1024
	}, func() {}
}

// rungFFTForward transforms one node's row block (fftRows rows of fftRow
// points) from a fresh copy of the same input; one unit is one block.
func rungFFTForward(s ladderShape, _ int, seed uint64) (func() int, func()) {
	rng := sim.NewRNG(seed)
	in := make([]complex128, s.fftRow*s.fftRows)
	for i := range in {
		in[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	work := make([]complex128, len(in))
	return func() int {
		copy(work, in)
		for r := 0; r < s.fftRows; r++ {
			fftkernel.Forward(work[r*s.fftRow : (r+1)*s.fftRow])
		}
		return 1
	}, func() {}
}
