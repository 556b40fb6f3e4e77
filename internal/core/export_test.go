package core

// MultiModuleProgram hands the package's multi-module test program to the
// external tests (package core_test), which may import workload.
var MultiModuleProgram = multiModuleProgram
