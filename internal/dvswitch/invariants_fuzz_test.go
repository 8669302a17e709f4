// FuzzSwitchInvariants drives arbitrary traffic and fault probabilities
// through the sparse active-list stepper AND the dense full-fabric scan, each
// under its own invariant checker. Both runs must finish violation-free with
// bit-identical telemetry — the differential oracle the sparse stepper is
// held to. The committed corpus under testdata/fuzz seeds the minimum
// geometry, saturating drop rates, and corruption bursts.

package dvswitch_test

import (
	"reflect"
	"testing"

	"repro/internal/check"
	"repro/internal/dvswitch"
	"repro/internal/sim"
)

// checkedCore builds one core (sparse or dense) with a full switch checker
// on the sweep and both boundaries.
type checkedCore struct {
	core   *dvswitch.Core
	chk    *check.Checker
	inject func(dvswitch.Packet)
}

func newCheckedCore(p dvswitch.Params, dense bool, faultSeed uint64, fp dvswitch.FaultProbs) *checkedCore {
	core := dvswitch.NewCore(p)
	dvswitch.SetDense(core, dense)
	if fp.Drop > 0 || fp.Corrupt > 0 {
		core.SetFaultProbs(fp, sim.NewRNG(faultSeed))
	}
	chk := check.New(&check.Config{Switch: true})
	deliver := chk.WrapDeliver(func(dvswitch.Packet) {})
	core.Deliver = func(pkt dvswitch.Packet, cycle int64) { deliver(pkt) }
	chk.AttachCore(core)
	return &checkedCore{core: core, chk: chk, inject: chk.WrapInject(core.Inject)}
}

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
		fp := dvswitch.FaultProbs{Drop: drop, Corrupt: corrupt}
		sparse := newCheckedCore(p, false, seed+1, fp)
		dense := newCheckedCore(p, true, seed+1, fp)

		total := 20 + int(n)%1000
		rng := sim.NewRNG(seed)
		for i := 0; i < total; i++ {
			pkt := dvswitch.Packet{
				Src:     rng.Intn(p.Ports()),
				Dst:     rng.Intn(p.Ports()),
				Header:  uint64(i) + 1,
				Payload: rng.Uint64(),
			}
			sparse.inject(pkt)
			dense.inject(pkt)
			if i%2 == 0 {
				sparse.core.Step()
				dense.core.Step()
			}
		}
		sparse.core.RunUntilIdle(1 << 22)
		dense.core.RunUntilIdle(1 << 22)
		if sparse.core.Busy() || dense.core.Busy() {
			t.Fatal("fabric did not drain")
		}
		sres, dres := sparse.chk.Finalize(), dense.chk.Finalize()
		if err := sres.Err(); err != nil {
			t.Fatalf("sparse core violated invariants: %v", err)
		}
		if err := dres.Err(); err != nil {
			t.Fatalf("dense core violated invariants: %v", err)
		}
		if sst, dst := sparse.core.Stats(), dense.core.Stats(); !reflect.DeepEqual(sst, dst) {
			t.Fatalf("sparse/dense telemetry diverged:\nsparse: %+v\ndense:  %+v", sst, dst)
		}
		if sres.PacketsTracked != int64(total) {
			t.Fatalf("tracked %d packets, injected %d", sres.PacketsTracked, total)
		}
	})
}
