package dvswitch

import (
	"testing"

	"repro/internal/sim"
)

// benchCore builds a 32-port core whose Deliver keeps a fixed population of
// packets in flight by reinjecting every delivery. inFlight controls the
// steady-state occupancy: 2 packets ≈ 1% of the 160-node fabric (the sparse
// case), ports*4 keeps every injection queue busy (the saturated case).
func benchCore(b *testing.B, inFlight int) *Core {
	b.Helper()
	p := Params{Heights: 8, Angles: 4}
	c := NewCore(p)
	rng := sim.NewRNG(7)
	ports := p.Ports()
	c.Deliver = func(pkt Packet, _ int64) {
		c.Inject(Packet{Src: pkt.Dst, Dst: rng.Intn(ports)})
	}
	for i := 0; i < inFlight; i++ {
		c.Inject(Packet{Src: rng.Intn(ports), Dst: rng.Intn(ports)})
	}
	// Warm up: reach steady state (pool and rings at final size) before the
	// timer starts, so the measured loop is allocation-free.
	for i := 0; i < 512; i++ {
		c.Step()
	}
	return c
}

// BenchmarkCoreStepSparse is the acceptance benchmark: 32-port switch at ~1%
// occupancy, where the sparse active-list stepper must stay 0 allocs/op.
func BenchmarkCoreStepSparse(b *testing.B) {
	c := benchCore(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c.Step()
	}
}

// BenchmarkCoreStepSaturated keeps every injection queue busy, so Step
// crosses over to the dense scan (every node is occupied).
func BenchmarkCoreStepSaturated(b *testing.B) {
	c := benchCore(b, 32*4)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c.Step()
	}
}

// BenchmarkInjectDrain measures a full burst-and-drain: 512 packets injected
// then stepped to empty. Steady-state iterations reuse the pool and rings, so
// this must be allocation-free too.
func BenchmarkInjectDrain(b *testing.B) {
	p := Params{Heights: 8, Angles: 4}
	c := NewCore(p)
	c.Deliver = func(Packet, int64) {}
	rng := sim.NewRNG(11)
	ports := p.Ports()
	burst := func() {
		for i := 0; i < 512; i++ {
			c.Inject(Packet{Src: rng.Intn(ports), Dst: rng.Intn(ports)})
		}
		c.RunUntilIdle(1 << 20)
		if c.Busy() {
			b.Fatal("drain did not converge")
		}
	}
	// A burst can have at most 512 packets live at once, so prewarming to
	// that high-water mark makes every iteration provably allocation-free —
	// a warmup burst alone leaves the pool sized to the first burst's peak,
	// and a later RNG draw can exceed it.
	c.Prewarm(512)
	burst() // warm the RNG-independent scratch state too
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		burst()
	}
}

// BenchmarkFastModelInject measures the calibrated fast model's injection
// path; the pooled delivery events keep it at one steady-state alloc-free
// event per packet.
func BenchmarkFastModelInject(b *testing.B) {
	k := sim.NewKernel()
	m := NewFastModel(k, Params{Heights: 8, Angles: 4}, DefaultCycleTime, sim.NewRNG(3))
	m.OnDeliver(func(Packet) {})
	rng := sim.NewRNG(5)
	ports := m.Ports()
	// Warm up the event pool.
	for i := 0; i < 64; i++ {
		m.Inject(Packet{Src: rng.Intn(ports), Dst: rng.Intn(ports)})
	}
	k.RunUntil(1 << 40)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := 0; i < 64; i++ {
			m.Inject(Packet{Src: rng.Intn(ports), Dst: rng.Intn(ports)})
		}
		k.RunUntil(1 << 40)
	}
}

// BenchmarkFastModelInjectDeep is FastModelInject in the deep-queue regime
// that motivated the calendar event queue (ROADMAP item 5): a closed loop
// over a 128-port fabric keeps ~4k delivery events pending, the depth large
// runs (gups16 and up) actually reach. Per op = 1024 fired events, each of
// which re-injects, so the scheduler's push/pop pair at depth dominates.
func BenchmarkFastModelInjectDeep(b *testing.B) {
	k := sim.NewKernel()
	m := NewFastModel(k, Params{Heights: 32, Angles: 4}, DefaultCycleTime, sim.NewRNG(3))
	rng := sim.NewRNG(5)
	ports := m.Ports()
	m.OnDeliver(func(pkt Packet) {
		m.Inject(Packet{Src: pkt.Dst, Dst: rng.Intn(ports)})
	})
	for i := 0; i < 4096; i++ {
		m.Inject(Packet{Src: rng.Intn(ports), Dst: rng.Intn(ports)})
	}
	// Reach steady state: pools, rings, and the calendar warm.
	k.RunUntilN(1<<40, 1<<17)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		k.RunUntilN(1<<40, 1024)
	}
}
