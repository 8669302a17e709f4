package cluster

import (
	"sync"
	"testing"

	"repro/internal/vic"
)

// scatterBody is a small all-to-all workload over the cycle-accurate Data
// Vortex stack: every node puts a word to every other node, fences, and
// verifies what it received. Irregular enough to exercise deflections and
// injection queueing.
func scatterBody(t *testing.T) func(n *Node) {
	return func(n *Node) {
		base := uint32(64)
		n.DV.Barrier()
		for d := 0; d < n.DV.Size(); d++ {
			if d == n.ID {
				continue
			}
			n.DV.Put(vic.DMACached, d, base+uint32(n.ID), vic.NoGC,
				[]uint64{uint64(n.ID)<<8 | uint64(d)})
		}
		n.DV.Barrier()
		for s := 0; s < n.DV.Size(); s++ {
			if s == n.ID {
				continue
			}
			if got := n.DV.Read(base+uint32(s), 1); got[0] != uint64(s)<<8|uint64(n.ID) {
				t.Errorf("node %d: word from %d = %x", n.ID, s, got[0])
			}
		}
	}
}

// TestConcurrentRunsDeterministic runs the same configuration on several
// goroutines at once and serially, expecting bit-identical reports — the
// property the bench package's parallel sweep runner relies on.
func TestConcurrentRunsDeterministic(t *testing.T) {
	run := func() *Report {
		cfg := DefaultConfig(6)
		cfg.Stacks = StackDV
		cfg.CycleAccurate = true
		return Run(cfg, scatterBody(t))
	}
	want := run()
	const n = 8
	got := make([]*Report, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run()
		}(i)
	}
	wg.Wait()
	for i, r := range got {
		if r.Elapsed != want.Elapsed || r.DVFabric != want.DVFabric {
			t.Errorf("concurrent run %d diverges from serial: elapsed %v vs %v",
				i, r.Elapsed, want.Elapsed)
		}
	}
}
