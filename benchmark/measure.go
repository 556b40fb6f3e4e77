package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one emitted metric. The two catalogues below are the
// single list of everything the program can print; BENCHMARK.json must
// hold exactly these names (schema_test.go).
type metricDef struct {
	Name string
	Unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_s.p50", "s"},
	{"kblocks_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
	{"allocs_k_per_op", "count"},
	{"peak_rss_mb", "MB"},
	{"opt_cycles_pct", "%"},
	{"text_vs_pm_pct", "%"},
}

var perLayer = []metricDef{
	{"core.op.s", "s"},
	{"core.build_pm.s", "s"},
	{"core.cache_ir.s", "s"},
	{"core.collect.s", "s"},
	{"core.analyze.s", "s"},
	{"core.relink.s", "s"},
	{"core.unattributed_share", "share"},
	{"core.trace_overhead_share", "share"},
	{"core.build_pm.probe_ratio", "ratio"},
	{"core.collect.probe_ratio", "ratio"},
	{"core.analyze.probe_ratio", "ratio"},
	{"core.relink.probe_ratio", "ratio"},
	{"core.model_ratio.phase2", "ratio"},
	{"core.model_ratio.phase3", "ratio"},
	{"core.model_ratio.phase4", "ratio"},
	{"core.hot_fraction", "share"},

	{"ir.encode.s", "s"},
	{"ir.encode.mb", "MB"},
	{"ir.encode.allocs_k", "count"},
	{"ir.decode.s", "s"},
	{"ir.decode.allocs_k", "count"},

	{"codegen.labels.s", "s"},
	{"codegen.labels.kblocks_per_s", "1/s"},
	{"codegen.labels.allocs_k", "count"},
	{"codegen.list.s", "s"},
	{"codegen.list.modules", "count"},

	{"objfile.encode.s", "s"},
	{"objfile.decode.s", "s"},
	{"objfile.decode.allocs_k", "count"},
	{"objfile.mb", "MB"},

	{"linker.pm.s", "s"},
	{"linker.po.s", "s"},
	{"linker.po.allocs_k", "count"},
	{"linker.input_mb", "MB"},
	{"linker.po.jumps_deleted", "count"},
	{"linker.po.branches_shrunk", "count"},
	{"linker.po.text_kb", "KB"},

	{"buildsys.objcache.hit_share", "share"},
	{"buildsys.exec.actions", "count"},

	{"sim.load.s", "s"},
	{"sim.load.allocs_k", "count"},
	{"sim.lbr.minst_per_s", "1/s"},
	{"sim.stream.minst_per_s", "1/s"},
	{"sim.plain.minst_per_s", "1/s"},
	{"sim.train_minsts", "count"},
	{"sim.lbr.samples_k", "count"},
	{"sim.lbr.allocs_per_sample", "ratio"},

	{"profile.encode.s", "s"},
	{"profile.decode.s", "s"},
	{"profile.decode.msamples_per_s", "1/s"},
	{"profile.decode.allocs_k", "count"},
	{"profile.wire_mb", "MB"},

	{"bbaddrmap.decode.s", "s"},
	{"bbaddrmap.lookup_build.s", "s"},

	{"wpa.aggregate.s", "s"},
	{"wpa.aggregate.mrecords_per_s", "1/s"},
	{"wpa.aggregate.allocs_k", "count"},
	{"wpa.intra.s", "s"},
	{"wpa.intra.hot_funcs", "count"},
	{"wpa.interproc.s", "s"},
	{"wpa.interproc.alloc_mb", "MB"},
	{"wpa.interproc.shards", "count"},
	{"wpa.stream.s", "s"},
	{"wpa.layout_cache.hit_share", "share"},

	{"fleetprof.collect.s", "s"},
	{"fleetprof.batches", "count"},
	{"fleetprof.retry_share", "share"},
	{"fleetprof.dup_share", "share"},
	{"fleetprof.queue_high_water", "count"},

	{"profsvc.publish.s", "s"},
	{"profsvc.fetch.s", "s"},
	{"profsvc.hot_reused_share", "share"},
	{"profsvc.adopted_gens", "count"},
	{"profsvc.fixed_point_gen", "count"},
}

// percentile returns the q-quantile (0..1) of v by the nearest-rank rule
// on a sorted copy: the smallest value with at least q of the samples at
// or below it. The median of an even-sized sample is the lower middle.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(q*float64(len(s)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

func median(v []float64) float64 { return percentile(v, 0.5) }

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the default exclusive method); a single value is all three.
func quartiles(v []float64) (q1, q2, q3 float64) {
	n := len(v)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return v[0], v[0], v[0]
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median: the steadiness measure the bounds are sized on.
func quartileSpread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// allocDelta is the MemStats movement around one measured region.
type allocDelta struct {
	Seconds float64
	Bytes   float64
	Mallocs float64
}

// measure runs fn between two MemStats snapshots. ReadMemStats stops the
// world, so it brackets whole ops and whole probes only.
func measure(fn func() error) (allocDelta, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	return allocDelta{
		Seconds: d.Seconds(),
		Bytes:   float64(b.TotalAlloc - a.TotalAlloc),
		Mallocs: float64(b.Mallocs - a.Mallocs),
	}, err
}

// calibrate times the fixed in-process loop every run executes beside
// its ops; host time in the end-to-end metrics is scaled by
// calibrationNominal ÷ the run's median loop time, so that a run on a host
// that is momentarily slow reads the same as a quiet one. The loop is
// three parts arithmetic (60M xorshift steps) and one part memory (allocate
// 200k cache-line-sized nodes, link them in shuffled order, walk the list
// three times): on the shared 2-core runner the pipeline's slow spells
// (ops 25 to 40% slower for minutes) slow arithmetic by 5 to 10% and the
// allocate-and-walk part by 60 to 80%, and this mix moved with the ops to
// within 6% on all four workloads where arithmetic alone left 15%.
// calibrationNominal is the loop's time on that runner when it is quiet.
const calibrationNominal = 0.17

var calibrationSink uint64

type calibrationNode struct {
	next *calibrationNode
	pad  [7]uint64
}

func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 60_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	nodes := make([]*calibrationNode, 200_000)
	for i := range nodes {
		nodes[i] = &calibrationNode{}
	}
	for i := len(nodes) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i := 0; i < len(nodes)-1; i++ {
		nodes[i].next = nodes[i+1]
	}
	for rep := 0; rep < 3; rep++ {
		for p := nodes[0]; p != nil; p = p.next {
			p.pad[0]++
			x += p.pad[0]
		}
	}
	calibrationSink = x
	return time.Since(t0).Seconds()
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
