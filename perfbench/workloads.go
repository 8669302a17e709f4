package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"

	"repro/internal/apprt"
	"repro/internal/apps/bfs"
	"repro/internal/apps/fft"
	"repro/internal/apps/gups"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/fftkernel"
)

// defaultSeed is the seed whose virtual results are pinned in pinnedDigests.
// A benchmark seed of 0 selects the apps' own default, which is this seed.
const defaultSeed = 1

// pinnedDigests holds, per workload at full size and defaultSeed, the
// digest of the run's cluster Report JSON plus the app's answer
// fingerprint. A host-only change must leave every one of them unchanged.
var pinnedDigests = map[string]string{
	"gups-dv":      "380bf242b4560ea2f89d9ea8b70a191c3b4d5684a301fac0488d91faa467ee07",
	"fft-dv-cycle": "c46346e1351c3b84e411b1e67861635e0b41b37f94c38783f7280f28de375746",
	"bfs-ib":       "e4d4a44a41db34bb1dce5797046ab2438bdf1bb5fc7def15b76c7cd53b9bd15f",
}

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"gups-dv", "fft-dv-cycle", "bfs-ib"}

// ladderShape sizes the ladder rungs like the workload's own traffic.
// Every workload reports the full ladder; rungs for layers a workload
// bypasses use the sizes of the workload that exercises them.
type ladderShape struct {
	queueDepth   int // pending kernel events in the sim.event rung
	injectBatch  int // packets per FastModel.InjectBatch
	wordsPerSend int // words per VIC HostSend
	alltoallB    int // bytes per destination in one MPI Alltoall
	graphScale   int // Kronecker scale for bfs.GenerateEdge
	fftRow       int // FFT row length of one node's row block
	fftRows      int // rows in one node's row block
}

// workload is one benchmark workload: a paper application at a fixed size
// on one network, run on the default serial kernel.
type workload struct {
	name string
	// setup is the network wiring of one run; building and tearing down a
	// cluster from it with an empty body is what setup_s measures.
	setup apprt.RunSpec
	run   func() *outcome
	shape ladderShape
	// pinned is the expected digest, empty when the seed has no pin.
	pinned string
}

// outcome is one finished run, kept so fingerprinting and validation
// happen outside the timed region.
type outcome struct {
	report *cluster.Report
	// answer writes the app's full answer (tables, spectrum or parent
	// arrays) into the fingerprint hash.
	answer func(h hash.Hash)
	// validate runs the app's own validator.
	validate func() error
}

// digest returns the hex SHA-256 of the Report JSON followed by the answer
// fingerprint, and the hex answer fingerprint alone.
func (o *outcome) digest() (full, answer string, err error) {
	js, err := json.Marshal(o.report)
	if err != nil {
		return "", "", fmt.Errorf("marshal report: %w", err)
	}
	ah := sha256.New()
	o.answer(ah)
	a := ah.Sum(nil)
	f := sha256.New()
	f.Write(js)
	f.Write(a)
	return hex.EncodeToString(f.Sum(nil)), hex.EncodeToString(a), nil
}

// putU64 writes v into h as eight little-endian bytes.
func putU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// newWorkload builds workload name for seed. small shrinks every size so
// the benchmark's own tests run in seconds; pins apply at full size only.
func newWorkload(name string, seed uint64, small bool) (*workload, error) {
	var w *workload
	switch name {
	case "gups-dv":
		w = gupsDV(gupsDVParams(seed, small))
	case "fft-dv-cycle":
		w = fftDVCycle(fftDVCycleParams(seed, small))
	case "bfs-ib":
		w = bfsIB(bfsIBParams(seed, small))
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if !small && (seed == defaultSeed || seed == 0) {
		w.pinned = pinnedDigests[name]
	}
	return w, nil
}

// gupsDVParams sizes GUPS (Figs 5-6): 32 nodes, 2^14 unprotected updates
// and 2^12 table words per node.
func gupsDVParams(seed uint64, small bool) gups.Params {
	p := gups.Params{Nodes: 32, UpdatesPerNode: 1 << 14, TableWordsNode: 1 << 12,
		Seed: seed, KeepTables: true}
	if small {
		p.Nodes, p.UpdatesPerNode, p.TableWordsNode = 8, 1<<10, 1<<8
	}
	return p
}

func gupsDV(par gups.Params) *workload {
	return &workload{
		name:  "gups-dv",
		setup: apprt.RunSpec{Net: comm.DV, Nodes: par.Nodes, Seed: par.Seed},
		// HPCC rounds of 1024 updates leave thousands of deliveries
		// pending; each round crosses PCIe as one DMA batch.
		shape: ladderShape{queueDepth: 4096, injectBatch: 64, wordsPerSend: 1024,
			alltoallB: 256, graphScale: 14, fftRow: 512, fftRows: 16},
		run: func() *outcome {
			res := gups.Run(comm.DV, par)
			return &outcome{
				report: res.Report,
				answer: func(h hash.Hash) {
					putU64(h, uint64(res.Updates))
					putU64(h, uint64(res.Lost))
					for _, tab := range res.Tables {
						for _, v := range tab {
							putU64(h, v)
						}
					}
				},
				validate: func() error {
					if res.Lost != 0 || res.Errors != 0 {
						return fmt.Errorf("gups: %d updates lost, %d errors", res.Lost, res.Errors)
					}
					if bad := gups.Verify(par, res); bad != 0 {
						return fmt.Errorf("gups: %d table words wrong", bad)
					}
					return nil
				},
			}
		},
	}
}

// fftDVCycleParams sizes FFT-1D (Fig 7): 32 nodes, 2^18 points, on the
// cycle-accurate switch.
func fftDVCycleParams(seed uint64, small bool) fft.Params {
	p := fft.Params{Nodes: 32, LogN: 18, Seed: seed, CycleAccurate: true, KeepResult: true}
	if small {
		p.Nodes, p.LogN = 8, 10
	}
	return p
}

func fftDVCycle(par fft.Params) *workload {
	n1 := 1 << (par.LogN / 2)
	n2 := 1 << (par.LogN - par.LogN/2)
	return &workload{
		name:  "fft-dv-cycle",
		setup: apprt.RunSpec{Net: comm.DV, Nodes: par.Nodes, Seed: par.Seed, CycleAccurate: true},
		// Each transpose scatters one bulk DMA per destination block; the
		// cycle-accurate engine keeps one pump event plus the procs queued.
		shape: ladderShape{queueDepth: 2 * par.Nodes, injectBatch: 512,
			wordsPerSend: 2 * (n1 / par.Nodes) * (n2 / par.Nodes), alltoallB: 256, graphScale: 14,
			fftRow: n2, fftRows: n1 / par.Nodes},
		run: func() *outcome {
			res := fft.Run(comm.DV, par)
			return &outcome{
				report: res.Report,
				answer: func(h hash.Hash) {
					for _, v := range res.Spectrum {
						putU64(h, math.Float64bits(real(v)))
						putU64(h, math.Float64bits(imag(v)))
					}
				},
				validate: func() error {
					ref := fft.SerialReference(par)
					if len(res.Spectrum) != len(ref) {
						return fmt.Errorf("fft: spectrum has %d points, want %d", len(res.Spectrum), len(ref))
					}
					// The tolerance the fft package's own tests use.
					if d := fftkernel.MaxAbsDiff(res.Spectrum, ref); !(d <= 1e-8*float64(res.N)) {
						return fmt.Errorf("fft: max |X - ref| = %g", d)
					}
					return nil
				},
			}
		},
	}
}

// bfsIBParams sizes Graph500 BFS (Fig 8): 32 nodes, scale 14, 4 roots.
func bfsIBParams(seed uint64, small bool) bfs.Params {
	p := bfs.Params{Nodes: 32, Scale: 14, NRoots: 4, Seed: seed, KeepParents: true}
	if small {
		p.Nodes, p.Scale, p.NRoots = 8, 9, 2
	}
	return p
}

func bfsIB(par bfs.Params) *workload {
	return &workload{
		name:  "bfs-ib",
		setup: apprt.RunSpec{Net: comm.IB, Nodes: par.Nodes, Seed: par.Seed},
		// Each level exchanges the frontier with an all-to-all.
		shape: ladderShape{queueDepth: 2 * par.Nodes, injectBatch: 64, wordsPerSend: 1024,
			alltoallB: 256, graphScale: par.Scale, fftRow: 512, fftRows: 16},
		run: func() *outcome {
			res := bfs.Run(comm.IB, par)
			return &outcome{
				report: res.Report,
				answer: func(h hash.Hash) {
					for _, s := range res.Searches {
						putU64(h, uint64(s.Root))
						putU64(h, uint64(s.Edges))
						putU64(h, uint64(s.Elapsed))
						putU64(h, uint64(s.Visited))
					}
					for _, ps := range res.Parents {
						for _, p := range ps {
							putU64(h, uint64(p))
						}
					}
				},
				validate: func() error {
					if len(res.Searches) != par.NRoots {
						return fmt.Errorf("bfs: %d searches, want %d", len(res.Searches), par.NRoots)
					}
					for i, s := range res.Searches {
						if err := bfs.ValidateParents(par, s.Root, res.Parents[i]); err != nil {
							return err
						}
					}
					return nil
				},
			}
		},
	}
}
