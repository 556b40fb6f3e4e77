package archtest

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// pkg is one type-checked package of the module.
type pkg struct {
	files []*ast.File
	rels  []string // each file's slash-separated path from the module root
	types *types.Package
	info  *types.Info
}

// loader parses every non-test Go file under the module root once and
// type-checks each package once. The standard
// library is checked from source by the go/importer source importer. The
// benchmark module's import paths nest under the root module's, so one
// loader reads both.
type loader struct {
	root  string // absolute module root
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*pkg // by import path
	paths []string        // of pkgs, sorted
}

// module is the root module's path; the benchmark module's is
// module + "/benchmark".
const module = "propeller"

// loaded is the module at the repository root, loaded once per test binary.
var loaded = sync.OnceValues(func() (*loader, error) { return load("../..") })

func load(rootDir string) (*loader, error) {
	root, err := filepath.Abs(rootDir)
	if err != nil {
		return nil, err
	}
	// The rules read module code only. Checking the standard library
	// without cgo needs no C toolchain and checks net's pure-Go files.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*pkg{},
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		return l.parseDir(path)
	})
	if err != nil {
		return nil, err
	}
	for p := range l.pkgs {
		l.paths = append(l.paths, p)
	}
	sort.Strings(l.paths)
	for _, p := range l.paths {
		if _, err := l.check(p); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// parseDir parses the non-test Go files of one directory, if it has any,
// as a package still to be checked.
func (l *loader) parseDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return err
	}
	rel = filepath.ToSlash(rel)
	p := &pkg{}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return err
			}
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p.files = append(p.files, f)
		p.rels = append(p.rels, path.Join(rel, name))
	}
	if len(p.files) > 0 {
		l.pkgs[path.Join(module, rel)] = p
	}
	return nil
}

// check type-checks the package at path once. The checker imports the
// module packages it names through Import, so they are checked first.
func (l *loader) check(path string) (*types.Package, error) {
	p := l.pkgs[path]
	if p == nil {
		return nil, fmt.Errorf("no module package %s", path)
	}
	if p.types != nil {
		return p.types, nil
	}
	tp, info, err := l.typeCheck(path, p.files)
	if err != nil {
		return nil, err
	}
	p.types, p.info = tp, info
	return tp, nil
}

// typeCheck checks files as the package at path against the loaded
// module packages and the standard library.
func (l *loader) typeCheck(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	return tp, info, nil
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == module || strings.HasPrefix(path, module+"/") {
		return l.check(path)
	}
	return l.std.Import(path)
}
