// Package archtest holds the architecture rules: each single point the
// design rests on (one varint codec, one fan-out primitive, one relink and
// the rest of the table in rules_test.go), checked on the type-checked
// source of every non-test file of the module, its examples and the
// benchmark module. Each rule has a planted violation under testdata/
// that it must report.
package archtest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// finding is one rule broken at one line.
type finding struct {
	rel  string // the file's path from the module root
	line int
	rule string
}

// findings runs every rule on each file of p that it applies to.
func (l *loader) findings(p *pkg) []finding {
	var out []finding
	for i, f := range p.files {
		ps := &pass{l: l, pkg: p.types, info: p.info, file: f}
		for _, r := range rules {
			if !r.applies(p.rels[i]) {
				continue
			}
			for _, n := range r.check(ps) {
				out = append(out, finding{p.rels[i], l.fset.Position(n.Pos()).Line, r.name})
			}
		}
	}
	return out
}

func TestArchitecture(t *testing.T) {
	l, err := loaded()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range l.paths {
		for _, f := range l.findings(l.pkgs[p]) {
			t.Errorf("%s:%d: rule %q: %s", f.rel, f.line, f.rule, ruleNamed(f.rule).why)
		}
	}
}

var (
	atRE   = regexp.MustCompile(`^//archtest:at (\S+)$`)
	wantRE = regexp.MustCompile(`"([^"]+)"`)
)

// TestRulesFireOnFixtures checks each fixture under testdata/ as if it sat
// at the path its //archtest:at line names. Each line with a
// `// want "rule" ...` comment must break exactly those rules, and no
// other line may break any. Every rule must be wanted by some fixture.
func TestRulesFireOnFixtures(t *testing.T) {
	l, err := loaded()
	if err != nil {
		t.Fatal(err)
	}
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.go"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no fixtures under testdata: %v", err)
	}
	wanted := map[string]bool{}
	for _, name := range fixtures {
		t.Run(filepath.Base(name), func(t *testing.T) {
			p, want, err := l.fixture(name)
			if err != nil {
				t.Fatal(err)
			}
			got := l.findings(p)
			for _, f := range got {
				if !slices.Contains(want, f) {
					t.Errorf("%s:%d: rule %q fired at %s (no want)", name, f.line, f.rule, f.rel)
				}
			}
			for _, f := range want {
				wanted[f.rule] = true
				if !slices.Contains(got, f) {
					t.Errorf("%s:%d: rule %q did not fire at %s", name, f.line, f.rule, f.rel)
				}
			}
		})
	}
	for _, r := range rules {
		if !wanted[r.name] {
			t.Errorf("rule %q has no fixture that must break it", r.name)
		}
	}
}

// fixture parses and type-checks one fixture file as a package of its
// own at the path its //archtest:at line names, and returns the findings
// its want comments expect.
func (l *loader) fixture(name string) (*pkg, []finding, error) {
	f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, nil, err
	}
	var at string
	var want []finding
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if m := atRE.FindStringSubmatch(c.Text); m != nil {
				at = m[1]
			}
			if rest, ok := strings.CutPrefix(c.Text, "// want "); ok {
				for _, m := range wantRE.FindAllStringSubmatch(rest, -1) {
					want = append(want, finding{line: l.fset.Position(c.Pos()).Line, rule: m[1]})
				}
			}
		}
	}
	if at == "" {
		return nil, nil, fmt.Errorf("%s: no //archtest:at line", name)
	}
	for i := range want {
		want[i].rel = at
	}
	tp, info, err := l.typeCheck(path.Join(module, path.Dir(at)), []*ast.File{f})
	if err != nil {
		return nil, nil, err
	}
	return &pkg{files: []*ast.File{f}, rels: []string{at}, types: tp, info: info}, want, nil
}

func ruleNamed(name string) *rule {
	for i := range rules {
		if rules[i].name == name {
			return &rules[i]
		}
	}
	return nil
}
