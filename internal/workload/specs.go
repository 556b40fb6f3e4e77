package workload

import (
	"fmt"
	"strings"
)

// The benchmark catalog: every workload of the paper's Table 2, scaled
// ~1:100 in function count (1:200 for the two largest) while preserving
// blocks-per-function, the cold-object fraction, and the workload class
// features (WSC applications carry integrity self-checks; Search runs with
// hugepages per §5.5; MySQL is cold-heavy; SPEC programs are small).

// Clang models the clang benchmark: 160K funcs / 2.1M BBs / 67% cold.
func Clang() Spec {
	return Spec{
		Name: "clang", Seed: 1001,
		NumFuncs: 1600, AvgBlocks: 13, ColdObjFrac: 0.67,
		HotFuncs: 130, Tiers: 4,
		SwitchFrac: 0.25, DataInCode: true, EHFrac: 0.20, LeafHelpers: 8,
		Requests: 12000,
	}
}

// MySQL models MySQL: 61K funcs / 1.4M BBs / 93% cold.
func MySQL() Spec {
	return Spec{
		Name: "mysql", Seed: 1002,
		NumFuncs: 610, AvgBlocks: 23, ColdObjFrac: 0.93,
		HotFuncs: 36, Tiers: 3,
		SwitchFrac: 0.30, DataInCode: true, EHFrac: 0.10, LeafHelpers: 6,
		Requests: 10000,
	}
}

// Spanner models the Spanner server: 562K funcs / 7.8M BBs / 83% cold.
func Spanner() Spec {
	return Spec{
		Name: "spanner", Seed: 1003,
		NumFuncs: 5620, AvgBlocks: 14, ColdObjFrac: 0.83,
		HotFuncs: 320, Tiers: 4,
		SwitchFrac: 0.20, DataInCode: true, EHFrac: 0.15, LeafHelpers: 10,
		Requests:  9000,
		Integrity: true,
	}
}

// Search models web search: 1.7M funcs / 18M BBs / 95% cold; hugepages on.
func Search() Spec {
	return Spec{
		Name: "search", Seed: 1004,
		NumFuncs: 8500, AvgBlocks: 11, ColdObjFrac: 0.95,
		HotFuncs: 380, Tiers: 5,
		SwitchFrac: 0.18, DataInCode: true, EHFrac: 0.12, LeafHelpers: 12,
		Requests: 8000,
		// Search is the one WSC application BOLT successfully optimized in
		// Table 3; it carries no startup self-check.
		HugePages: true,
	}
}

// Bigtable models Bigtable: 368K funcs / 4.2M BBs / 88% cold.
func Bigtable() Spec {
	return Spec{
		Name: "bigtable", Seed: 1005,
		NumFuncs: 3680, AvgBlocks: 11, ColdObjFrac: 0.88,
		HotFuncs: 240, Tiers: 4,
		SwitchFrac: 0.20, DataInCode: true, EHFrac: 0.12, LeafHelpers: 8,
		Requests:  9000,
		Integrity: true,
	}
}

// Superroot models Superroot, the largest application: 2.7M funcs / 30M
// BBs / 82% cold.
func Superroot() Spec {
	return Spec{
		Name: "superroot", Seed: 1006,
		NumFuncs: 13500, AvgBlocks: 11, ColdObjFrac: 0.82,
		HotFuncs: 620, Tiers: 5,
		SwitchFrac: 0.18, DataInCode: true, EHFrac: 0.12, LeafHelpers: 16,
		Requests:  7000,
		Integrity: true,
	}
}

// WSC returns the four warehouse-scale applications of Table 3.
func WSC() []Spec {
	return []Spec{Spanner(), Search(), Superroot(), Bigtable()}
}

// SPECInt returns the eight SPEC2017-integer-like programs of §5.4
// (520.omnetpp is excluded there because it fails to build with clang).
func SPECInt() []Spec {
	mk := func(name string, seed int64, funcs, avg int, cold float64, hot int, req int64, sw float64) Spec {
		return Spec{
			Name: name, Seed: seed,
			NumFuncs: funcs, AvgBlocks: avg, ColdObjFrac: cold,
			HotFuncs: hot, Tiers: 3,
			SwitchFrac: sw, EHFrac: 0, LeafHelpers: 4,
			Requests: req,
		}
	}
	return []Spec{
		mk("500.perlbench", 2001, 700, 12, 0.55, 70, 9000, 0.30),
		mk("502.gcc", 2002, 1200, 12, 0.60, 110, 8000, 0.30),
		mk("505.mcf", 2003, 90, 9, 0.21, 18, 16000, 0.05),
		mk("523.xalancbmk", 2004, 900, 10, 0.70, 70, 8000, 0.20),
		mk("531.deepsjeng", 2005, 120, 11, 0.30, 26, 14000, 0.12),
		mk("541.leela", 2006, 250, 10, 0.45, 40, 12000, 0.10),
		mk("548.exchange2", 2007, 80, 14, 0.25, 20, 14000, 0.08),
		mk("557.xz", 2008, 150, 10, 0.88, 22, 14000, 0.10),
	}
}

// OpenSource returns the two open-source workloads.
func OpenSource() []Spec { return []Spec{Clang(), MySQL()} }

// Catalog returns every benchmark in the paper's Table 2 order.
func Catalog() []Spec {
	out := []Spec{Clang(), MySQL(), Spanner(), Search(), Bigtable(), Superroot()}
	return append(out, SPECInt()...)
}

// Set returns the workload set the CLIs' -set flag names: all (the
// catalog), wsc, oss, spec, smoke (clang, MySQL and Spanner, a CI-sized
// cross-section) or tiny.
func Set(name string) ([]Spec, error) {
	switch name {
	case "all":
		return Catalog(), nil
	case "wsc":
		return WSC(), nil
	case "oss":
		return OpenSource(), nil
	case "spec":
		return SPECInt(), nil
	case "smoke":
		return []Spec{Clang(), MySQL(), Spanner()}, nil
	case "tiny":
		return []Spec{Tiny()}, nil
	}
	return nil, fmt.Errorf("unknown workload set %q (have all, wsc, oss, spec, smoke, tiny)", name)
}

// ByName resolves the workload the CLIs' -workload flag names: one of the
// catalog or tiny.
func ByName(name string) (Spec, error) {
	specs := append(Catalog(), Tiny())
	names := make([]string, len(specs))
	for i, s := range specs {
		if s.Name == name {
			return s, nil
		}
		names[i] = s.Name
	}
	return Spec{}, fmt.Errorf("unknown workload %q (have: %s)", name, strings.Join(names, ", "))
}

// Tiny returns a fast miniature workload for unit tests.
func Tiny() Spec {
	return Spec{
		Name: "tiny", Seed: 7,
		NumFuncs: 60, AvgBlocks: 9, ColdObjFrac: 0.6,
		HotFuncs: 12, Tiers: 3,
		SwitchFrac: 0.3, DataInCode: true, EHFrac: 0.3, LeafHelpers: 3,
		Requests:  4000,
		Integrity: true,
	}
}
