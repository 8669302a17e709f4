package sim

import "testing"

// BenchmarkProcPingPong measures one round trip between two processes that
// alternate through a pair of gates: per op, two Signal/Wait handoffs, each a
// wake event plus a switch into the woken process and back to the kernel.
func BenchmarkProcPingPong(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	var ping, pong Gate
	k.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Wait(p)
			pong.Signal(k)
		}
	})
	k.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Signal(k)
			pong.Wait(p)
		}
	})
	b.ResetTimer()
	k.Run()
}

// stormDepth is the number of events BenchmarkEventStorm keeps queued.
const stormDepth = 4096

// stormEv is one self-rescheduling event of the storm; its delay spreads the
// queue over many calendar buckets.
type stormEv struct{ d Time }

// BenchmarkEventStorm measures one AtArg push plus one pop-and-fire against
// a queue held stormDepth deep: every fired event schedules its successor.
func BenchmarkEventStorm(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel()
	evs := make([]stormEv, stormDepth)
	left := b.N
	var fire func(any)
	fire = func(a any) {
		if left == 0 {
			return
		}
		left--
		k.AtArg(k.now+a.(*stormEv).d, fire, a)
	}
	for i := range evs {
		evs[i].d = Time(1+(i*7919)%1000) * Nanosecond
		k.AtArg(evs[i].d, fire, &evs[i])
	}
	b.ResetTimer()
	k.Run()
}
