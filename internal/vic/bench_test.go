package vic

// Boundary microbenchmarks: the VIC-side cost of moving packets across the
// inject and eject seams, isolated from switch-model time by a counting sink
// fabric.

import (
	"testing"

	"repro/internal/dvswitch"
	"repro/internal/sim"
)

const benchBurst = 512 // words per HostSend / packets per delivery burst

// benchInjectVIC wires one VIC to a sink fabric that only counts packets.
func benchInjectVIC() (*sim.Kernel, *VIC, *int) {
	k := sim.NewKernel()
	sunk := new(int)
	v := New(k, 0, 0, DefaultParams(), func(dvswitch.Packet) { *sunk++ })
	v.SetBatchInject(func(pkts []dvswitch.Packet) { *sunk += len(pkts) })
	return k, v, sunk
}

// BenchmarkVICInject measures a 512-word cached-DMA HostSend over the
// batched boundary (one inject event per DMA chunk).
func BenchmarkVICInject(b *testing.B) {
	k, v, sunk := benchInjectVIC()
	words := make([]Word, benchBurst)
	for i := range words {
		words[i] = Word{Dst: 0, Op: OpWrite, GC: NoGC, Addr: uint32(i), Val: uint64(i)}
	}
	k.Spawn("send", func(p *sim.Proc) {
		v.HostSend(p, DMACached, words) // warm the batch/payload pools
		b.ReportAllocs()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			v.HostSend(p, DMACached, words)
		}
		b.StopTimer()
	})
	k.Run()
	if want := (b.N + 1) * benchBurst; *sunk != want {
		b.Fatalf("fabric saw %d packets, want %d", *sunk, want)
	}
}

// BenchmarkVICEject measures delivery of a 512-packet burst through the
// batched eject path (pooled receive events).
func BenchmarkVICEject(b *testing.B) {
	k, v, _ := benchInjectVIC()
	pkts := make([]dvswitch.Packet, benchBurst)
	for i := range pkts {
		pkts[i] = dvswitch.Packet{
			Src:     1,
			Dst:     0,
			Header:  EncodeHeader(0, OpWrite, NoGC, uint32(i)),
			Payload: uint64(i),
		}
	}
	deliver := func() {
		for i := range pkts {
			v.Receive(pkts[i])
		}
		k.RunUntil(sim.Forever)
	}
	deliver() // warm the receive-event pool and memory pages
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		deliver()
	}
	b.StopTimer()
	if v.Peek(benchBurst-1) != benchBurst-1 {
		b.Fatal("deliveries did not execute")
	}
}
