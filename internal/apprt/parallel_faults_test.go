// Determinism of independent kernels run side by side under faults: the
// bench sweep runner executes several apprt runs on concurrent goroutines,
// so no fault RNG, pooled boundary buffer, or registry state may be shared
// between runs. Under -race this also catches unsynchronised sharing of the
// one *faultplan.Plan every run reads.

package apprt_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/apprt"
	_ "repro/internal/apps/all"
	"repro/internal/comm"
	"repro/internal/faultplan"
	"repro/internal/sim"
)

// TestParallelKernelUnderFaults runs each reliable-capable app with every
// fault class a fast-model run supports active at once — a drop+corrupt
// window, a VIC DMA stall, and an InfiniBand uplink flap — once serially and
// then on several kernels in parallel goroutines. Every parallel Summary and
// full cluster telemetry Report must equal the serial one.
func TestParallelKernelUnderFaults(t *testing.T) {
	plan := &faultplan.Plan{
		Seed: 7, DropProb: 1e-4, CorruptProb: 1e-4,
		Window:    faultplan.Window{Start: 2 * sim.Microsecond, End: 400 * sim.Microsecond},
		DMAStalls: []faultplan.DMAStall{{VIC: 1, At: 5 * sim.Microsecond, Stall: 3 * sim.Microsecond}},
		IBFlaps:   []faultplan.LinkFlap{{Leaf: 0, Spine: 0, Start: 4 * sim.Microsecond, Down: 20 * sim.Microsecond}},
	}
	for _, a := range apprt.Apps() {
		if !a.Reliable {
			continue
		}
		a := a
		t.Run(a.Name, func(t *testing.T) {
			spec := confSpec(a, comm.DV, true)
			spec.Faults = plan
			serial, err := a.Run(spec)
			if err != nil {
				t.Fatalf("serial run failed: %v", err)
			}
			const runs = 3
			sums := make([]apprt.Summary, runs)
			errs := make([]error, runs)
			var wg sync.WaitGroup
			for i := 0; i < runs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					sums[i], errs[i] = a.Run(spec)
				}(i)
			}
			wg.Wait()
			for i, sum := range sums {
				if errs[i] != nil {
					t.Fatalf("parallel run %d failed: %v", i, errs[i])
				}
				if !summariesEqual(serial, sum) {
					t.Errorf("parallel run %d changed the summary:\n  serial:   %+v\n  parallel: %+v",
						i, serial, sum)
				}
				if !reflect.DeepEqual(*serial.Cluster, *sum.Cluster) {
					t.Errorf("parallel run %d changed the cluster report:\n  serial:   %+v\n  parallel: %+v",
						i, *serial.Cluster, *sum.Cluster)
				}
			}
		})
	}
}
