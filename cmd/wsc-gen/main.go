// wsc-gen generates a synthetic benchmark workload (Table 2 catalog) and
// writes its IR modules to a directory, one .ir file per module, plus a
// MANIFEST listing them in link order.
//
// Usage:
//
//	wsc-gen -workload clang -o out/
//	wsc-gen -list
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"propeller/internal/ir"
	"propeller/internal/workload"
)

func main() {
	var (
		name = flag.String("workload", "tiny", "workload name from the Table 2 catalog (or 'tiny')")
		out  = flag.String("o", ".", "output directory")
		list = flag.Bool("list", false, "list available workloads and exit")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-16s %8s %8s %7s %10s\n", "NAME", "FUNCS", "BLOCKS", "%COLD", "REQUESTS")
		for _, s := range append(workload.Catalog(), workload.Tiny()) {
			fmt.Printf("%-16s %8d %8s %6.0f%% %10d\n", s.Name, s.NumFuncs, "~", 100*s.ColdObjFrac, s.Requests)
		}
		return
	}
	spec, err := workload.ByName(*name)
	if err != nil {
		fatalf("%v", err)
	}
	prog, err := workload.Generate(spec)
	if err != nil {
		fatalf("generate: %v", err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("%v", err)
	}
	manifest, err := os.Create(filepath.Join(*out, "MANIFEST"))
	if err != nil {
		fatalf("%v", err)
	}
	defer manifest.Close()
	var total int64
	for _, m := range prog.Core.Modules {
		data := ir.EncodeModule(m)
		path := filepath.Join(*out, m.Name+".ir")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fatalf("write %s: %v", path, err)
		}
		fmt.Fprintln(manifest, m.Name+".ir")
		total += int64(len(data))
	}
	fmt.Printf("wsc-gen: %s: %d modules (%d cold), %d functions, %d blocks, %.1fKB IR -> %s\n",
		spec.Name, prog.TotalModules, prog.ColdModules, len(prog.HotFuncNames), prog.TotalBlocks,
		float64(total)/1024, *out)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wsc-gen: "+format+"\n", args...)
	os.Exit(1)
}
