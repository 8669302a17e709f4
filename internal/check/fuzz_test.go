// Native fuzz targets for the invariant layer. Two properties are fuzzed:
//
//   - FuzzSwitchInvariants: arbitrary traffic and fault probabilities driven
//     through the cycle-accurate engine wired the way a cluster wires it —
//     kernel-scheduled inject batches through the checker's batch wrapper, a
//     fault plan applied to the engine, deliveries through the checker's
//     deliver wrapper. The checker must stay silent, account for every
//     packet, and agree with the core's own telemetry. The dense-vs-sparse
//     differential fuzz of the same name lives with the switch core in
//     internal/dvswitch and shares this seed corpus.
//   - FuzzReliableDelivery: a reliable write across a lossy cycle-accurate
//     fabric, with the exactly-once and sequence invariants on. Whatever
//     fate the fault RNG deals, the layer either delivers everything (and
//     destination memory proves it) or reports an honest error; the checker
//     must stay silent in both cases.
//
// The committed corpus under testdata/fuzz seeds the interesting regions:
// minimum geometry, saturating drop rates, chunk-boundary write sizes.

package check_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/dv"
	"repro/internal/dvswitch"
	"repro/internal/faultplan"
	"repro/internal/sim"
	"repro/internal/vic"
)

func FuzzSwitchInvariants(f *testing.F) {
	f.Add(uint64(1), uint16(200), uint8(2), float64(0), float64(0))
	f.Add(uint64(7), uint16(500), uint8(1), float64(0.05), float64(0))
	f.Add(uint64(9), uint16(64), uint8(0), float64(0), float64(0.2))
	f.Add(uint64(3), uint16(900), uint8(2), float64(0.3), float64(0.3))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, geom uint8, drop, corrupt float64) {
		if !(drop >= 0 && drop <= 1) || !(corrupt >= 0 && corrupt <= 1) {
			t.Skip()
		}
		// Odd angle count guarantees drainage (see FuzzCoreFaultDelivery in
		// dvswitch); heights sweep the minimum through a mid-size fabric.
		p := dvswitch.Params{Heights: 2 << (geom % 3), Angles: 5}
		k := sim.NewKernel()
		eng := dvswitch.NewEngine(k, p, dvswitch.DefaultCycleTime)
		eng.ApplyPlan(&faultplan.Plan{Seed: seed + 1, DropProb: drop, CorruptProb: corrupt})
		chk := check.New(&check.Config{Switch: true})
		chk.AttachCore(eng.Core())
		var delivered int64
		eng.OnDeliver(chk.WrapDeliver(func(dvswitch.Packet) { delivered++ }))
		inject := chk.WrapInjectBatch(eng.InjectBatch)

		// Batches of 1..8 packets, one kernel event per batch, spaced so the
		// pump sees both idle gaps and back-to-back arrivals.
		total := 20 + int(n)%1000
		rng := sim.NewRNG(seed)
		at := sim.Time(0)
		for sent := 0; sent < total; {
			batch := make([]dvswitch.Packet, min(1+rng.Intn(8), total-sent))
			for i := range batch {
				sent++
				batch[i] = dvswitch.Packet{
					Src:     rng.Intn(p.Ports()),
					Dst:     rng.Intn(p.Ports()),
					Header:  uint64(sent),
					Payload: rng.Uint64(),
				}
			}
			k.At(at, func() { inject(batch) })
			at += sim.Time(rng.Intn(4)) * dvswitch.DefaultCycleTime
		}
		k.Run()
		if eng.Core().Busy() {
			t.Fatal("fabric did not drain")
		}
		res := chk.Finalize()
		if err := res.Err(); err != nil {
			t.Fatalf("engine violated invariants: %v", err)
		}
		if res.PacketsTracked != int64(total) {
			t.Fatalf("tracked %d packets, injected %d", res.PacketsTracked, total)
		}
		st := eng.FabricStats()
		if st.Injected != int64(total) || st.Delivered != delivered || st.Delivered+st.Dropped != st.Injected {
			t.Fatalf("telemetry does not balance: injected %d, delivered %d (seen %d), dropped %d",
				st.Injected, st.Delivered, delivered, st.Dropped)
		}
	})
}

func FuzzReliableDelivery(f *testing.F) {
	f.Add(uint64(1), uint16(256), float64(0.01), float64(0), uint8(0))
	f.Add(uint64(3), uint16(1024), float64(0.05), float64(0.02), uint8(3))
	f.Add(uint64(7), uint16(511), float64(0), float64(0.1), uint8(1))
	f.Add(uint64(9), uint16(513), float64(0.1), float64(0), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, nw uint16, drop, corrupt float64, chunkSel uint8) {
		if !(drop >= 0 && drop <= 0.3) || !(corrupt >= 0 && corrupt <= 0.3) {
			t.Skip() // beyond ~30% loss the retry budget honestly gives up
		}
		words := 16 + int(nw)%1024
		plan := &faultplan.Plan{Seed: seed + 1, DropProb: drop, CorruptProb: corrupt}
		if !plan.Active() {
			plan = nil
		}

		k := sim.NewKernel()
		eng := dvswitch.NewEngine(k, dvswitch.ForPorts(2), dvswitch.DefaultCycleTime)
		if plan != nil {
			eng.ApplyPlan(plan)
		}
		chk := check.New(&check.Config{Reliable: true})
		vics := make([]*vic.VIC, 2)
		eps := make([]*dv.Endpoint, 2)
		for i := range vics {
			vics[i] = vic.New(k, i, i, vic.DefaultParams(), eng.Inject)
			vics[i].BarrierInit(2)
			eps[i] = dv.NewEndpoint(vics[i], i, 2)
			opts := dv.DefaultReliableOpts()
			opts.ChunkWords = 64 << (chunkSel % 4) // 64..512
			eps[i].SetReliableOpts(opts)
			chk.AttachVIC(vics[i])
			chk.BindEndpoint(eps[i], func(dst int) *vic.VIC {
				if dst < 0 || dst >= len(vics) {
					return nil
				}
				return vics[dst]
			})
		}
		eng.OnDeliver(func(pkt dvswitch.Packet) { vics[pkt.Dst].Receive(pkt) })

		addr := eps[0].Alloc(words)
		eps[1].Alloc(words)
		vals := make([]uint64, words)
		rng := sim.NewRNG(seed)
		for i := range vals {
			vals[i] = rng.Uint64() | 1
		}
		var werr error
		k.Spawn("sender", func(p *sim.Proc) {
			eps[0].Bind(p)
			werr = eps[0].ReliableWrite(1, addr, vals)
		})
		k.Run()
		if res := chk.Finalize(); !res.Ok() {
			t.Fatalf("invariant violations (write err=%v):\n%s", werr, res)
		}
		if werr == nil {
			// Success report: destination memory must hold every word.
			for i, want := range vals {
				if got := vics[1].Peek(addr + uint32(i)); got != want {
					t.Fatalf("word %d: destination holds %#x, want %#x (reported success)", i, got, want)
				}
			}
		}
	})
}
