// Command perfbench measures the simulator's host cost on three paper
// workloads at the testbed's 32-node size, and checks that every run's
// virtual result matches its pinned digest. See README.md.
//
//	perfbench --workload gups-dv --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics from untraced runs; --trace 1 reports the per-layer metrics from
// a separate traced run and writes the trace under --out.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/apprt"
	"repro/internal/cluster"
	"repro/internal/comm"
	"repro/internal/sim"
)

// minRuns is the fewest timed runs a measurement takes, however short
// --seconds is, so that every median has a middle.
const minRuns = 3

// setup_s is the median of setupBatches batches of builds, each batch
// taking at least setupBatch.
const (
	setupBatches = 21
	setupBatch   = 40 * time.Millisecond
)

func main() {
	name := flag.String("workload", "", "workload: gups-dv, fft-dv-cycle or bfs-ib")
	seed := flag.Uint64("seed", defaultSeed, "workload seed (0 selects the apps' default, 1)")
	seconds := flag.Float64("seconds", 20, "measurement time per invocation")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "trace"), "directory for the trace files of --trace 1")
	flag.Parse()
	w, err := newWorkload(*name, *seed, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)),
		start: time.Now(), validated: map[string]error{}}
	var res result
	if *trace == 1 {
		res, err = b.traced(*out)
	} else {
		res = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	js, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(js))
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one invocation's state: the workload, the runs it checked and
// the spans it recorded.
type bench struct {
	w      *workload
	seed   uint64
	budget time.Duration
	start  time.Time

	attempted, failed int
	// first is the first run's digest, against which an unpinned seed's
	// later runs are compared.
	first string
	// validated memoizes the app validator's verdict per answer
	// fingerprint: identical answers get identical verdicts.
	validated map[string]error
	verifyS   []float64
	spans     []span
}

// span is one timed region of the benchmark, in seconds since its start.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// begin opens a span under parent (0 for none) and returns a function
// that closes it and returns its duration in seconds.
func (b *bench) begin(name string, parent int) (id int, end func() float64) {
	b.spans = append(b.spans, span{ID: len(b.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(b.start).Seconds()})
	i := len(b.spans) - 1
	return b.spans[i].ID, func() float64 {
		b.spans[i].End = time.Since(b.start).Seconds()
		return b.spans[i].End - b.spans[i].Start
	}
}

// runStat is what one timed run measured.
type runStat struct {
	sec, allocMB, virtUS float64
	peakRSSMB            float64
	mallocs, gcCycles    uint64
	gcCPU, totalCPU      float64
	report               *cluster.Report
}

// cpuSamples lists the runtime/metrics a run reads for its GC CPU share.
var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// runOnce performs one closed-loop run between forced collections, checks
// it outside the timed region, and reports whether it passed. around, when
// set, brackets the timed call (the traced run starts and stops the CPU
// profile there).
func (b *bench) runOnce(parent int, around func(run func())) (runStat, bool) {
	var st runStat
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	metrics.Read(cpuSamples)
	gc0, tot0 := cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	resetPeakRSS()
	var out *outcome
	var err error
	_, end := b.begin("run", parent)
	call := func() {
		t0 := time.Now()
		out, err = safeRun(b.w.run)
		st.sec = time.Since(t0).Seconds()
	}
	if around != nil {
		around(call)
	} else {
		call()
	}
	end()
	st.peakRSSMB = peakRSSMB()
	runtime.ReadMemStats(&m1)
	runtime.GC()
	metrics.Read(cpuSamples)
	st.gcCPU = cpuSamples[0].Value.Float64() - gc0
	st.totalCPU = cpuSamples[1].Value.Float64() - tot0
	st.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.gcCycles = uint64(m1.NumGC - m0.NumGC)
	b.attempted++
	if err == nil {
		err = b.check(out, parent)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d run %d: %v\n", b.w.name, b.seed, b.attempted, err)
		return st, false
	}
	st.report = out.report
	st.virtUS = out.report.Elapsed.Micros()
	return st, true
}

// safeRun runs the workload, turning a panic into an error.
func safeRun(run func() *outcome) (out *outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("run panicked: %v", r)
		}
	}()
	return run(), nil
}

// check compares a run's digest with the pin (or, for an unpinned seed,
// with the first run's) and runs the app's validator once per distinct
// answer.
func (b *bench) check(o *outcome, parent int) error {
	full, answer, err := o.digest()
	if err != nil {
		return err
	}
	switch {
	case b.w.pinned != "" && full != b.w.pinned:
		return fmt.Errorf("digest %s differs from the pinned %s", full, b.w.pinned)
	case b.first == "":
		b.first = full
	case full != b.first:
		return fmt.Errorf("digest %s differs from the first run's %s: the run is not deterministic", full, b.first)
	}
	verr, done := b.validated[answer]
	if !done {
		_, end := b.begin("verify", parent)
		verr = o.validate()
		b.verifyS = append(b.verifyS, end())
		b.validated[answer] = verr
	}
	return verr
}

// measure runs the workload in a closed loop until d has passed and at
// least minRuns runs have ended, and returns the stats of the passing
// runs.
func (b *bench) measure(d time.Duration, parent int, around func(run func())) []runStat {
	var runs []runStat
	t0 := time.Now()
	for n := 0; time.Since(t0) < d || n < minRuns; n++ {
		if st, ok := b.runOnce(parent, around); ok {
			runs = append(runs, st)
		}
	}
	return runs
}

// measureSetup returns the median host seconds to build and tear down the
// workload's cluster with an empty node body. One build takes well under a
// millisecond, so it is timed in batches of at least setupBatch, each
// after a forced collection.
func (b *bench) measureSetup() float64 {
	one := func() {
		apprt.Execute(b.w.setup, func(*cluster.Node, comm.Backend) sim.Time { return 0 })
	}
	for i := 0; i < 20; i++ {
		one()
	}
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			one()
		}
		if time.Since(t0) >= setupBatch {
			break
		}
		n *= 2
	}
	per := make([]float64, setupBatches)
	for i := range per {
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < n; j++ {
			one()
		}
		per[i] = time.Since(t0).Seconds() / float64(n)
	}
	return median(per)
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() result {
	setup := b.measureSetup()
	b.runOnce(0, nil) // warm-up: heap and caches reach steady state; checked, not timed
	runs := b.measure(b.budget, 0, nil)
	n := len(runs)
	sec, alloc, rate, rss := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i, r := range runs {
		sec[i], alloc[i], rate[i], rss[i] = r.sec, r.allocMB, r.virtUS/r.sec, r.peakRSSMB
	}
	b.summary(runs)
	return b.result(map[string]metric{
		"run_s":         {median(sec), "s"},
		"vsim_us_per_s": {median(rate), "us/s"},
		"setup_s":       {setup, "s"},
		"alloc_mb":      {median(alloc), "MB"},
		"peak_rss_mb":   {median(rss), "MB"},
	})
}

// summary prints the run count and run-time spread to standard output.
func (b *bench) summary(runs []runStat) {
	sec := make([]float64, len(runs))
	for i, r := range runs {
		sec[i] = r.sec
	}
	pin := "unpinned seed, runs identical"
	if b.w.pinned != "" {
		pin = "pinned digest matched"
	}
	if b.failed > 0 {
		pin = "FAILED"
	}
	sort.Float64s(sec)
	if len(sec) > 0 {
		fmt.Printf("%s seed %d: %d timed runs, run_s min %.4f median %.4f max %.4f; %d/%d runs passed, %s, digest %s\n",
			b.w.name, b.seed, len(sec), sec[0], median(sec), sec[len(sec)-1],
			b.attempted-b.failed, b.attempted, pin, b.first)
	}
}

func (b *bench) result(m map[string]metric) result {
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// resetPeakRSS restarts the kernel's peak resident set count (VmHWM) at
// the current resident set, so the next peakRSSMB covers one run. Where
// the reset is unavailable the peak covers the process so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the peak resident set (VmHWM) since the last
// resetPeakRSS in MB, or the runtime's total obtained memory where /proc is
// unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// traced measures the per-layer metrics: untraced and CPU-profiled runs
// for the tracing overhead and profile shares, the Report counts, the
// runtime deltas and the ladder. It writes the spans, shares and ladder
// to dir.
func (b *bench) traced(dir string) (result, error) {
	root, endRoot := b.begin("bench", 0)
	_, end := b.begin("setup", root)
	b.measureSetup()
	end()
	b.runOnce(root, nil) // warm-up
	id, end := b.begin("untraced", root)
	plain := b.measure(b.budget/3, id, nil)
	end()

	prof := &cpuProfile{}
	var profErr error
	var raw [][]byte
	profiled := func(run func()) {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			profErr = err
			run()
			return
		}
		run()
		pprof.StopCPUProfile()
		p, err := parseCPUProfile(buf.Bytes())
		if err != nil {
			profErr = err
			return
		}
		prof.merge(p)
		raw = append(raw, buf.Bytes())
	}
	id, end = b.begin("traced", root)
	traced := b.measure(b.budget/2, id, profiled)
	end()
	if profErr != nil {
		return result{}, fmt.Errorf("cpu profile: %w", profErr)
	}

	m := b.layerMetrics(plain, traced, prof)
	id, end = b.begin("ladder", root)
	for _, r := range rungs {
		_, endR := b.begin(r.name, id)
		v, al := measureRung(r, b.w.shape, b.w.setup.Nodes, b.seed)
		endR()
		m[r.name] = metric{v, r.unit}
		m[r.allocs] = metric{al, "count"}
	}
	end()
	endRoot()
	b.summary(traced)
	if err := b.writeTrace(dir, m, raw); err != nil {
		return result{}, err
	}
	return b.result(m), nil
}

// layerMetrics derives the per-layer metrics of the traced run.
func (b *bench) layerMetrics(plain, traced []runStat, prof *cpuProfile) map[string]metric {
	m := map[string]metric{}
	shares, samples := prof.shares()
	for _, l := range layers {
		m[layerMetric(l)] = metric{shares[l], "frac"}
	}
	m["profile.samples"] = metric{float64(samples), "count"}

	secs := func(rs []runStat) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = r.sec
		}
		return median(xs)
	}
	runT, runU := secs(traced), secs(plain)
	m["bench.run_traced_s"] = metric{runT, "s"}
	m["bench.run_untraced_s"] = metric{runU, "s"}
	m["bench.trace_overhead_frac"] = metric{nanZero(runT/runU - 1), "frac"}
	m["bench.verify_s"] = metric{median(append([]float64(nil), b.verifyS...)), "s"}
	m["fail_frac"] = metric{float64(b.failed) / float64(b.attempted), "frac"}

	var mallocs, gcs, gcFrac []float64
	for _, r := range traced {
		mallocs = append(mallocs, float64(r.mallocs))
		gcs = append(gcs, float64(r.gcCycles))
		gcFrac = append(gcFrac, nanZero(r.gcCPU/r.totalCPU))
	}
	m["runtime.mallocs"] = metric{median(mallocs), "count"}
	m["runtime.gc_cycles"] = metric{median(gcs), "count"}
	m["runtime.gc_cpu_frac"] = metric{median(gcFrac), "frac"}

	var rep cluster.Report
	if len(traced) > 0 {
		rep = *traced[len(traced)-1].report
	}
	sw := rep.DVFabric
	var vs struct{ sent, recv, pcie, fifo int64 }
	for _, v := range rep.VICs {
		vs.sent += v.PktsSent
		vs.recv += v.PktsReceived
		vs.pcie += v.PCIeBytesOut + v.PCIeBytesIn
		vs.fifo += v.FIFOPkts
	}
	count := func(name string, v int64) { m[name] = metric{float64(v), "count"} }
	m["virt_us"] = metric{rep.Elapsed.Micros(), "us"}
	count("dvswitch.injected", sw.Injected)
	count("dvswitch.delivered", sw.Delivered)
	count("dvswitch.deflected", sw.TotalDeflected)
	count("dvswitch.hops", sw.TotalHops)
	count("dvswitch.queued_cycles", sw.QueuedCycles)
	m["dvswitch.deflections_per_pkt"] = metric{sw.MeanDeflections(), "count"}
	count("vic.pkts_sent", vs.sent)
	count("vic.pkts_received", vs.recv)
	m["vic.pcie_bytes"] = metric{float64(vs.pcie), "B"}
	count("vic.fifo_pkts", vs.fifo)
	count("ib.messages", rep.IBFabric.Messages)
	m["ib.bytes"] = metric{float64(rep.IBFabric.Bytes), "B"}

	perPkt := func(share float64, pkts int64) float64 {
		if pkts == 0 {
			return 0
		}
		return share * runT * 1e9 / float64(pkts)
	}
	m["dvswitch.host_ns_per_pkt"] = metric{perPkt(shares["dvswitch.core"]+shares["dvswitch.fast"], sw.Delivered), "ns"}
	m["vic.host_ns_per_pkt"] = metric{perPkt(shares["vic"], vs.sent), "ns"}
	return m
}

// nanZero maps a NaN or infinite ratio (an empty base) to 0.
func nanZero(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// writeTrace writes the spans, metrics and CPU profiles of a traced run
// to dir.
func (b *bench) writeTrace(dir string, m map[string]metric, profiles [][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.w.name, b.seed))
	js, err := json.MarshalIndent(struct {
		Workload string            `json:"workload"`
		Seed     uint64            `json:"seed"`
		Spans    []span            `json:"spans"`
		Metrics  map[string]metric `json:"metrics"`
	}{b.w.name, b.seed, b.spans, m}, "", "  ")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	errs := []error{os.WriteFile(base+".json", js, 0o644)}
	for i, p := range profiles {
		errs = append(errs, os.WriteFile(fmt.Sprintf("%s-run%d.pprof", base, i), p, 0o644))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
