package core

import "propeller/internal/prefetch"

// MultiModuleProgram hands the package's multi-module test program to the
// external tests (package core_test), which may import workload.
var MultiModuleProgram = multiModuleProgram

// CollectAndAnalyze is the pipelined Phase 3 that Optimize runs, for the
// tests and the benchmark that hold it to CollectProfile then Analyze.
var CollectAndAnalyze = collectAndAnalyze

// WithPrefetchDirectives returns opts carrying the §3.5 insertion sites
// Optimize derives between Phases 3 and 4, so a phase-by-phase replay can
// hand Relink what Optimize hands it.
func WithPrefetchDirectives(opts Options, d prefetch.Directives) Options {
	opts.prefetchDirectives = d
	return opts
}
