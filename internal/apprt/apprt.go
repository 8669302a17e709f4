// Package apprt is the application runtime harness: the one place that
// turns "run this workload on that network" into a wired cluster. It owns
// the run lifecycle every app package used to re-implement privately —
// building the §IV testbed configuration, selecting the stack for a
// comm.Net, injecting fault plans, attaching tracing and the metrics
// layer, timing the kernels, and assembling the run Report — plus a
// registry in which every workload under internal/apps self-registers, so
// drivers (dvbench, dvinfo, examples, the conformance suite) discover the
// real app set instead of hand-maintaining lists.
//
// An app is reduced to a kernel: a function of (node, backend) returning
// the node's measured span. Adding a workload is one file — implement the
// kernel, call apprt.Register in init, and every driver picks it up.
package apprt

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/dvswitch"
	"repro/internal/faultplan"
	"repro/internal/ib"
	"repro/internal/obs"
	"repro/internal/obs/attr"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RunSpec is the harness configuration shared by every workload — the
// union of the run-wiring fields that were once duplicated across ten
// private Params structs. App-specific sizing (table words, grid points,
// graph scale, ...) stays in each app's own Params.
type RunSpec struct {
	// Net selects the network under test.
	Net comm.Net
	// Nodes is the cluster size.
	Nodes int
	// Seed pins the run's randomness; 0 keeps the testbed default.
	Seed uint64
	// CycleAccurate routes Data Vortex packets through the cycle-level
	// switch engine instead of the calibrated fast model.
	CycleAccurate bool
	// VICsPerNode attaches multiple Data Vortex rails per node.
	VICsPerNode int
	// DVPlanes runs the Data Vortex stack on N parallel switch planes behind
	// the VIC boundary (0 or 1 = the paper's single-plane testbed); see
	// cluster.Config.DVPlanes.
	DVPlanes int
	// PlanePolicy names the deterministic plane-assignment policy for
	// DVPlanes > 1: "" or "hash" (per-pair affinity), "rr" (per-source
	// round-robin). Parsed by dvswitch.ParsePlanePolicy.
	PlanePolicy string
	// IBAdaptive enables adaptive fat-tree routing for the MPI stack.
	IBAdaptive bool
	// IBScaled sizes the fat-tree IB baseline for the run's node count
	// (full-bisection two-level tree, ib.ForNodes) instead of the paper's
	// fixed 8-nodes/leaf × 2-spine testbed tree, which is 4:1 oversubscribed
	// beyond a few leaves. Scaling studies set this so the comparison stays
	// honest at size.
	IBScaled bool
	// Reliable routes Data Vortex traffic through the reliable-delivery
	// layer in apps that support it.
	Reliable bool
	// WaitTimeout, when > 0, bounds unprotected completion waits so lossy
	// runs terminate and report losses instead of hanging.
	WaitTimeout sim.Time
	// Faults injects a fault plan into every enabled fabric.
	Faults *faultplan.Plan
	// Trace records execution states and messages (Figure 5).
	Trace *trace.Recorder
	// Obs enables the unified metrics layer for the run.
	Obs *obs.Config
	// Check enables the invariant layer for the run; results land in
	// Report.Cluster.Checks. Checking never alters a run's results.
	Check *check.Config
	// Attr enables causal flow tracing and stage-level latency attribution;
	// the per-stage/per-node decomposition, slowest-flow drill-down, and
	// critical path land in Report.Cluster.Attr. Attribution never alters a
	// run's results (golden-pinned).
	Attr *attr.Config
	// Checkpoint runs the workload under the managed pump: periodic
	// full-state snapshots, wall/virtual budgets, and replay-verified
	// restore (see cluster.Checkpoint). Execute fills in the Net identity
	// field when empty; apps forward this pointer untouched.
	Checkpoint *cluster.Checkpoint
}

// Kernel is one workload's per-node body. It receives the node and the
// backend for the spec's network and returns the span it measured (0 when
// this node does not contribute a measurement); app-specific outputs are
// collected through the closure. Kernels run SPMD under the deterministic
// event kernel, so closure writes need no locking.
type Kernel func(n *cluster.Node, be comm.Backend) sim.Time

// Report is the harness-level outcome of one run.
type Report struct {
	// Net and Nodes echo the spec.
	Net   comm.Net
	Nodes int
	// Elapsed is the longest span any kernel measured (the quantity every
	// paper metric derives from).
	Elapsed sim.Time
	// Cluster is the full testbed report: virtual node times, fabric and
	// fault telemetry, reliability counters, and metrics when Obs was set.
	Cluster *cluster.Report
}

// Execute wires spec into a cluster, runs kernel SPMD on every node, and
// assembles the report. This is the single construction path for every
// registered workload; behavior matches the wiring the apps used to do by
// hand (a zero Seed keeps the calibrated default, exactly as apps that
// never set cfg.Seed did).
func Execute(spec RunSpec, kernel Kernel) Report {
	if spec.Nodes <= 0 {
		panic(fmt.Sprintf("apprt: invalid node count %d", spec.Nodes))
	}
	cfg := cluster.DefaultConfig(spec.Nodes)
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	cfg.Stacks = spec.Net.Stacks()
	cfg.CycleAccurate = spec.CycleAccurate
	cfg.VICsPerNode = spec.VICsPerNode
	cfg.DVPlanes = spec.DVPlanes
	pol, err := dvswitch.ParsePlanePolicy(spec.PlanePolicy)
	if err != nil {
		panic(fmt.Sprintf("apprt: %v", err))
	}
	cfg.PlanePolicy = pol
	if spec.IBScaled {
		cfg.IB = ib.ForNodes(spec.Nodes)
	}
	cfg.IB.Adaptive = spec.IBAdaptive
	cfg.Faults = spec.Faults
	cfg.Trace = spec.Trace
	cfg.Obs = spec.Obs
	cfg.Check = spec.Check
	cfg.Attr = spec.Attr
	if spec.Checkpoint != nil {
		if spec.Checkpoint.Net == "" {
			spec.Checkpoint.Net = spec.Net.String()
		}
		cfg.Checkpoint = spec.Checkpoint
	}
	rep := Report{Net: spec.Net, Nodes: spec.Nodes}
	rep.Cluster = cluster.Run(cfg, func(n *cluster.Node) {
		if d := kernel(n, comm.New(spec.Net, n)); d > rep.Elapsed {
			rep.Elapsed = d
		}
	})
	return rep
}
