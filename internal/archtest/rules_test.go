package archtest

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// rule is one architecture rule: a single point the design rests on,
// checked on every non-test file in its scope that no exception names.
type rule struct {
	name string
	why  string // what the rule keeps in one place, and what to use instead
	// scope and the exception paths are slash-separated paths from the
	// module root: a directory covers everything under it, "." the whole
	// tree (the benchmark module included).
	scope  []string
	except []exception
	check  func(p *pass) []ast.Node // the nodes that break the rule
}

type exception struct{ path, reason string }

// pass is one file of a type-checked package, as a rule sees it.
type pass struct {
	l    *loader
	pkg  *types.Package
	info *types.Info
	file *ast.File
}

var rules = []rule{
	{
		name:  "varint",
		why:   "hand-written varint codec outside internal/wire (use wire.Reader / wire.Writer)",
		scope: []string{"."},
		except: []exception{
			{"internal/wire", "the one varint codec"},
			{"internal/wpa/paths.go", "the path-set fingerprint hashes uvarint-framed lengths; it writes a hash, not a format"},
		},
		check: func(p *pass) []ast.Node {
			return p.uses(func(o types.Object) bool {
				return o.Pkg() != nil && o.Pkg().Path() == "encoding/binary" &&
					(strings.Contains(o.Name(), "Varint") || strings.Contains(o.Name(), "varint"))
			})
		},
	},
	{
		name:   "address resolver: fragment search",
		why:    "fragment binary search spelled outside internal/bbaddrmap (use Lookup.BlockAt / BlockStarting / AppendBlocksIn)",
		scope:  []string{"."},
		except: []exception{{"internal/bbaddrmap", "owns the fragment search"}},
		check: func(p *pass) []ast.Node {
			return find(p.file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !slices.Contains([]string{"Start", "start", "Addr", "addr"}, sel.Sel.Name) {
					return false
				}
				ix, ok := sel.X.(*ast.IndexExpr)
				return ok && isIdent(ix.Index, "mid")
			})
		},
	},
	{
		name:  "address resolver: per-record Resolve",
		why:   "uncached Resolve per LBR record (use bbaddrmap.Resolver or bbaddrmap.FuncSet)",
		scope: []string{"."},
		check: func(p *pass) []ast.Node {
			return find(p.file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isSelector(call.Fun, "Resolve", "ResolveFull") {
					return false
				}
				return slices.ContainsFunc(call.Args, func(a ast.Expr) bool { return isSelector(a, "From", "To") })
			})
		},
	},
	{
		name:  "block numbering",
		why:   "map keyed on *ir.Block in internal/ir or internal/codegen (index a slice by Block.Index())",
		scope: []string{"internal/ir", "internal/codegen"},
		check: func(p *pass) []ast.Node {
			return find(p.file, func(n ast.Node) bool {
				mt, ok := n.(*ast.MapType)
				if !ok {
					return false
				}
				ptr, ok := p.info.TypeOf(mt.Key).(*types.Pointer)
				if !ok {
					return false
				}
				named, ok := types.Unalias(ptr.Elem()).(*types.Named)
				return ok && pkgObj(named.Obj(), "propeller/internal/ir", "Block")
			})
		},
	},
	{
		name:  "address-map merge",
		why:   "per-fragment address-map decode in internal/linker (splice with bbaddrmap.Splice)",
		scope: []string{"internal/linker"},
		check: func(p *pass) []ast.Node {
			decodes := p.uses(func(o types.Object) bool { return pkgObj(o, "propeller/internal/bbaddrmap", "Decode") })
			return append(decodes, find(p.file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				return ok && isSelector(call.Fun, "Rebase")
			})...)
		},
	},
	{
		name:  "analysis door",
		why:   "analysis entered through a wrapper door (use wpa.Analyze with a Samples, Wire, During or Prebuilt source, or core.Analyze)",
		scope: []string{"."},
		except: []exception{
			{"benchmark", "the deprecated wrappers are kept for the benchmark module alone"},
			{"internal/wpa", "defines the wrappers"},
		},
		check: func(p *pass) []ast.Node {
			return p.uses(func(o types.Object) bool {
				return pkgObj(o, "propeller/internal/wpa", "AnalyzeAggregate", "AnalyzeStream") ||
					pkgObj(o, "propeller/internal/core", "AnalyzeStreamed")
			})
		},
	},
	{
		name:  "Ext-TSP retrieval",
		why:   "a second Ext-TSP merge retrieval outside the tests (exttsp.Layout's heap is the one production loop)",
		scope: []string{"."},
		check: func(p *pass) []ast.Node {
			return find(p.file, func(n ast.Node) bool {
				return isIdent(n, "runNaive", "UseHeap", "NaiveExtTSP")
			})
		},
	},
	{
		name:   "fan-out",
		why:    "goroutine started outside internal/par (use par.Do, or par.Start and Join)",
		scope:  []string{"."},
		except: []exception{{"internal/par", "starts every goroutine"}},
		check: func(p *pass) []ast.Node {
			gos := find(p.file, func(n ast.Node) bool { _, ok := n.(*ast.GoStmt); return ok })
			return append(gos, p.uses(func(o types.Object) bool { return pkgObj(o, "sync", "WaitGroup") })...)
		},
	},
	{
		name:   "checksum verdict",
		why:    "exit checksum compared outside core.Measure (pass the reference run to core.Measure and match *core.ChecksumError)",
		scope:  []string{"internal", "cmd"},
		except: []exception{{"internal/core/measure.go", "core.Measure compares a run's exit with the reference run's"}},
		// An exit on each side is a name ending in Exit or exit (r.Exit,
		// wantExit), as the text rule this replaced read it.
		check: func(p *pass) []ast.Node {
			return find(p.file, func(n ast.Node) bool {
				b, ok := n.(*ast.BinaryExpr)
				return ok && (b.Op == token.EQL || b.Op == token.NEQ) && namesExit(b.X) && namesExit(b.Y)
			})
		},
	},
	{
		name:   "admission rule",
		why:    "fleet gate criterion compared outside fleetprof.Gate.Check (call Gate.Check with the ingest stats, the hot set and the expected hosts)",
		scope:  []string{"internal", "cmd"},
		except: []exception{{"internal/fleetprof/gate.go", "Gate.Check compares the criteria"}},
		check: func(p *pass) []ast.Node {
			return find(p.file, func(n ast.Node) bool {
				b, ok := n.(*ast.BinaryExpr)
				if !ok || !slices.Contains([]token.Token{token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ}, b.Op) {
					return false
				}
				return p.hasField(b.X, "MinSamples", "MinHotFuncs", "MinHostCoverage") ||
					p.hasField(b.Y, "MinSamples", "MinHotFuncs", "MinHostCoverage")
			})
		},
	},
	{
		name:  "relink",
		why:   "symbol-ordered link or list-mode codegen outside core.Relink (relink through core.Relink, where the verifier runs)",
		scope: []string{"internal", "cmd"},
		except: []exception{
			{"internal/core/core.go", "core.Relink wires the optimized binary; build reads ModeList to name list-mode codegen actions"},
			{"cmd/wsc-cc", "reads cc_prof.txt from outside"},
			{"cmd/wsc-ld", "reads ld_prof.txt from outside"},
		},
		check: func(p *pass) []ast.Node {
			order := p.l.field("propeller/internal/linker", "Config", "Order")
			isOrder := func(e ast.Expr) bool {
				sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
				return ok && p.info.Uses[sel.Sel] == order
			}
			at := find(p.file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					id, ok := n.Key.(*ast.Ident)
					return ok && p.info.Uses[id] == order
				case *ast.AssignStmt:
					return slices.ContainsFunc(n.Lhs, isOrder)
				case *ast.UnaryExpr:
					return n.Op == token.AND && isOrder(n.X)
				}
				return false
			})
			if p.pkg.Path() == "propeller/internal/codegen" {
				return at
			}
			return append(at, p.uses(func(o types.Object) bool { return pkgObj(o, "propeller/internal/codegen", "ModeList") })...)
		},
	},
}

// applies reports whether the rule checks the file at rel.
func (r *rule) applies(rel string) bool {
	return slices.ContainsFunc(r.scope, func(s string) bool { return under(rel, s) }) &&
		!slices.ContainsFunc(r.except, func(e exception) bool { return under(rel, e.path) })
}

func under(rel, path string) bool {
	return path == "." || rel == path || strings.HasPrefix(rel, path+"/")
}

// find returns the nodes under root that match, in source order.
func find(root ast.Node, match func(ast.Node) bool) []ast.Node {
	var at []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n != nil && match(n) {
			at = append(at, n)
		}
		return true
	})
	return at
}

// uses returns the identifiers of the file that refer to a matching object.
func (p *pass) uses(match func(types.Object) bool) []ast.Node {
	return find(p.file, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return false
		}
		o := p.info.Uses[id]
		return o != nil && match(o)
	})
}

// hasField reports whether e selects a struct field with one of the names.
func (p *pass) hasField(e ast.Expr, names ...string) bool {
	return len(find(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		v, ok := p.info.Uses[sel.Sel].(*types.Var)
		return ok && v.IsField() && slices.Contains(names, v.Name())
	})) > 0
}

// field is the named field of the named struct type of a module package.
func (l *loader) field(pkgPath, typeName, name string) types.Object {
	st := l.pkgs[pkgPath].types.Scope().Lookup(typeName).Type().Underlying().(*types.Struct)
	for i := 0; i < st.NumFields(); i++ {
		if f := st.Field(i); f.Name() == name {
			return f
		}
	}
	panic(pkgPath + "." + typeName + " has no field " + name)
}

// pkgObj reports whether o is a package-level object of the package at
// path with one of the names.
func pkgObj(o types.Object, path string, names ...string) bool {
	return o.Pkg() != nil && o.Pkg().Path() == path && o.Parent() == o.Pkg().Scope() && slices.Contains(names, o.Name())
}

func isIdent(n ast.Node, names ...string) bool {
	id, ok := n.(*ast.Ident)
	return ok && slices.Contains(names, id.Name)
}

func isSelector(e ast.Expr, names ...string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	return ok && slices.Contains(names, sel.Sel.Name)
}

// namesExit reports whether e mentions a name ending in Exit or exit.
func namesExit(e ast.Expr) bool {
	return len(find(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && (strings.HasSuffix(id.Name, "Exit") || strings.HasSuffix(id.Name, "exit"))
	})) > 0
}
