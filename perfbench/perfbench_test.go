package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"rng under bfs counts as app", []string{
			"repro/internal/sim.(*RNG).Uint64", "repro/internal/sim.(*RNG).Float64",
			"repro/internal/apps/bfs.GenerateEdge", "repro/internal/apps/bfs.buildLocal",
		}, "app"},
		{"chan frames under park count as handoff", []string{
			"runtime.futex", "runtime.chanrecv", "runtime.chanrecv1",
			"repro/internal/sim.(*Proc).park", "repro/internal/sim.(*Proc).Wait",
			"repro/internal/vic.(*VIC).HostSend",
		}, "sim.handoff"},
		{"chan send in resumeProc counts as handoff", []string{
			"runtime.chansend1", "repro/internal/sim.(*Kernel).resumeProc",
			"repro/internal/sim.fireResume", "repro/internal/sim.(*Kernel).fire",
		}, "sim.handoff"},
		{"gc worker counts as gc", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker",
		}, "runtime.gc"},
		{"write barrier under app code counts as gc", []string{
			"runtime.wbBufFlush1", "runtime.gcWriteBarrier2", "repro/internal/apps/bfs.buildLocal",
		}, "runtime.gc"},
		{"assist inside malloc counts as gc", []string{
			"runtime.gcAssistAlloc", "runtime.mallocgc", "runtime.growslice",
			"repro/internal/apps/bfs.buildLocal",
		}, "runtime.gc"},
		{"malloc under app code counts as alloc", []string{
			"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice",
			"repro/internal/apps/fft.runNode",
		}, "runtime.alloc"},
		{"scheduler-only stack counts as handoff", []string{
			"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm",
			"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall",
		}, "sim.handoff"},
		{"system monitor", []string{"runtime.usleep", "runtime.sysmon", "runtime.mstart1", "runtime.mstart0"}, "runtime.other"},
		{"profile writer", []string{"runtime/pprof.(*profileBuilder).build", "runtime/pprof.profileWriter"}, "runtime.other"},
		{"calendar queue counts as events", []string{
			"repro/internal/sim.(*calQ).pop", "repro/internal/sim.(*Kernel).popMin",
			"repro/internal/sim.(*Kernel).Run",
		}, "sim.events"},
		{"fast model", []string{
			"repro/internal/dvswitch.(*Stats).recordLatency", "repro/internal/dvswitch.fireDelivery",
			"repro/internal/sim.(*Kernel).fire",
		}, "dvswitch.fast"},
		{"cycle-accurate core", []string{
			"repro/internal/dvswitch.(*Core).moveCell", "repro/internal/dvswitch.(*Core).Step",
			"repro/internal/dvswitch.(*Engine).pump",
		}, "dvswitch.core"},
		{"generic sim queue", []string{"repro/internal/sim.(*Queue[go.shape.uint64]).Push"}, "sim.events"},
		{"vic", []string{"repro/internal/vic.fireReceive"}, "vic"},
		{"comm counts as dv", []string{"repro/internal/comm.(*dvBackend).Scatter"}, "dv"},
		{"ib counts as mpi", []string{"repro/internal/ib.(*Fabric).Send", "repro/internal/mpi.(*Comm).isend"}, "mpi"},
		{"apprt counts as cluster", []string{"repro/internal/apprt.Execute.func1"}, "cluster"},
		{"fftkernel counts as app", []string{"math.Sincos", "repro/internal/fftkernel.transform"}, "app"},
		{"other repo module", []string{"repro/internal/obs.(*Registry).Counter"}, "other"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("%s: classify = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestMetricNames runs both modes on a small workload and checks that the
// emitted metric names are well formed and are exactly those
// BENCHMARK.json declares for the mode.
func TestMetricNames(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ladder")
	}
	endToEnd, perLayer := benchmarkMetrics(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, mode := range []struct {
		trace bool
		want  []string
	}{{false, endToEnd}, {true, perLayer}} {
		w, err := newWorkload("gups-dv", defaultSeed, true)
		if err != nil {
			t.Fatal(err)
		}
		b := &bench{w: w, seed: defaultSeed, start: time.Now(), validated: map[string]error{}}
		var res result
		if mode.trace {
			res, err = b.traced(t.TempDir())
		} else {
			res = b.untraced()
		}
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("trace=%v: result %+v", mode.trace, res)
		}
		var got []string
		for name := range res.Metrics {
			if !valid.MatchString(name) {
				t.Errorf("metric name %q is malformed", name)
			}
			got = append(got, name)
		}
		sort.Strings(got)
		want := append([]string(nil), mode.want...)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Errorf("trace=%v: emitted %d metrics %v, BENCHMARK.json declares %d %v",
				mode.trace, len(got), got, len(want), want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("trace=%v: emitted %q where BENCHMARK.json has %q", mode.trace, got[i], want[i])
			}
		}
	}
}

// TestWorkloadsDeterministic runs every workload twice at a small size:
// both runs must give the same digest and pass the app's validator.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		w, err := newWorkload(name, 7, true)
		if err != nil {
			t.Fatal(err)
		}
		var digests [2]string
		for i := range digests {
			out, err := safeRun(w.run)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if digests[i], _, err = out.digest(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := out.validate(); err != nil {
				t.Errorf("%s run %d: %v", name, i, err)
			}
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digests differ between runs: %s, %s", name, digests[0], digests[1])
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := newWorkload("gups", 1, false); err == nil {
		t.Error("newWorkload accepted an unknown name")
	}
}
