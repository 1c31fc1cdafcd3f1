// Command docscheck enforces the documentation contract the
// docs-check CI step runs: every package in the module carries a
// package-level doc comment, and every exported top-level declaration
// in the library packages (everything but package main) carries a doc
// comment of its own. The package list is derived from `go list ./...`
// rather than enumerated by hand, so a new package is gated the day it
// is added. Parsing stops at the AST (no type checking), keeping the
// check fast enough to run on every push.
//
// It also keeps the runbooks honest: the top-level documents and the
// verify skill (refDocs) may name a `make <target>` only when the
// Makefile's .PHONY line lists it, and a BENCH_<n>.json only when git
// tracks it — so a retired gate or baseline cannot linger in a
// procedure someone will follow. And for the two commands with a
// flag table in OPERATIONS.md (flagDocs), the table and the flags
// main.go registers must be the same set, one row each.
//
// Usage:
//
//	docscheck [packages]
//
// packages defaults to ./... and is passed to `go list` verbatim. Exit
// status is nonzero when any package lacks a doc comment, any exported
// declaration is undocumented, any document names a dangling target or
// file or a flag table disagrees with its command, listing each
// offender with the file and line to fix.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	pattern := "./..."
	if len(os.Args) > 1 {
		pattern = os.Args[1]
	}
	pkgs, err := listPackages(pattern)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	var offenders []string
	for _, p := range pkgs {
		off, err := checkPackage(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
			os.Exit(2)
		}
		offenders = append(offenders, off...)
	}
	refs, err := checkRepoRefs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	offenders = append(offenders, refs...)
	sort.Strings(offenders)
	for _, o := range offenders {
		fmt.Println(o)
	}
	if len(offenders) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d documentation offender(s)\n", len(offenders))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d packages documented, exported API covered, %d documents name only live make targets and tracked BENCH files, %d flag tables match their commands\n",
		len(pkgs), len(refDocs), len(flagDocs))
}

// refDocs are the documents, relative to the module root, whose make
// targets and BENCH files must exist.
var refDocs = []string{
	"README.md", "OPERATIONS.md", "DESIGN.md", "EXPERIMENTS.md", "ARCHITECTURE.md",
	".claude/skills/verify/SKILL.md",
}

// checkRepoRefs runs checkRefs over refDocs against the module's own
// Makefile and git index.
func checkRepoRefs() ([]string, error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		return nil, fmt.Errorf("go list -m: %v", err)
	}
	root := strings.TrimSpace(string(out))
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		return nil, err
	}
	ls := exec.Command("git", "ls-files", "BENCH_*")
	ls.Dir = root
	if out, err = ls.Output(); err != nil {
		return nil, fmt.Errorf("git ls-files: %v", err)
	}
	tracked := map[string]bool{}
	for _, f := range strings.Fields(string(out)) {
		tracked[f] = true
	}
	targets := phonyTargets(string(mk))
	var offenders []string
	for _, doc := range refDocs {
		text, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			return nil, err
		}
		offenders = append(offenders, checkRefs(doc, string(text), targets, tracked)...)
	}
	ops, err := os.ReadFile(filepath.Join(root, flagDoc))
	if err != nil {
		return nil, err
	}
	for section, dir := range flagDocs {
		registered, err := registeredFlags(filepath.Join(root, dir, "main.go"))
		if err != nil {
			return nil, err
		}
		offenders = append(offenders, checkFlags(dir, registered, flagDoc, section, string(ops))...)
	}
	return offenders, nil
}

// flagDocs maps a "## <section>" of flagDoc to the command whose
// flags that section's table documents.
var flagDocs = map[string]string{
	"serve":    "cmd/serve",
	"loadtest": "cmd/loadtest",
}

const flagDoc = "OPERATIONS.md"

var (
	flagCall = regexp.MustCompile(`^(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?$`)
	flagName = regexp.MustCompile("`-([a-z][a-z0-9-]*)`")
)

// registeredFlags reads the flag names a source file registers on the
// flag package or on a flag set named fs, without running it: the name
// is the first argument of flag.Int and friends, the second of the
// *Var forms.
func registeredFlags(file string) ([]string, error) {
	af, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		return nil, err
	}
	var names []string
	ast.Inspect(af, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		m := flagCall.FindStringSubmatch(sel.Sel.Name)
		if recv, ok := sel.X.(*ast.Ident); !ok || m == nil || recv.Name != "flag" && recv.Name != "fs" {
			return true
		}
		arg := 0
		if m[2] != "" {
			arg = 1
		}
		if arg < len(call.Args) {
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				names = append(names, strings.Trim(lit.Value, "\"`"))
			}
		}
		return true
	})
	return names, nil
}

// checkFlags compares cmd's registered flags with the table rows of
// doc's "## section": every flag needs exactly one row (a row's first
// cell may name several flags), and a row may name only flags that
// exist.
func checkFlags(cmd string, registered []string, doc, section, text string) []string {
	var offenders []string
	rows := map[string]int{} // flag -> line of its row
	inSection := false
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "## ") {
			inSection = line == "## "+section
			continue
		}
		if !inSection || !strings.HasPrefix(line, "| `-") {
			continue
		}
		cell, _, _ := strings.Cut(line[2:], "|")
		for _, m := range flagName.FindAllStringSubmatch(cell, -1) {
			if first, dup := rows[m[1]]; dup {
				offenders = append(offenders, fmt.Sprintf("%s:%d: -%s already has a row at line %d", doc, i+1, m[1], first))
				continue
			}
			rows[m[1]] = i + 1
		}
	}
	for _, name := range registered {
		if _, ok := rows[name]; !ok {
			offenders = append(offenders, fmt.Sprintf("%s: %s registers -%s, which the %q table has no row for", doc, cmd, name, section))
		}
		delete(rows, name)
	}
	for name, line := range rows {
		offenders = append(offenders, fmt.Sprintf("%s:%d: -%s is not a flag %s registers", doc, line, name, cmd))
	}
	return offenders
}

// phonyTargets is the Makefile's .PHONY list: the targets that exist.
func phonyTargets(makefile string) map[string]bool {
	targets := map[string]bool{}
	for _, line := range strings.Split(makefile, "\n") {
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			for _, t := range strings.Fields(rest) {
				targets[t] = true
			}
		}
	}
	return targets
}

var (
	makeTarget = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
	benchFile  = regexp.MustCompile(`BENCH_[0-9]+\.json`)
)

// checkRefs returns one line per make target in doc's text that
// targets lacks and per BENCH_<n>.json that tracked lacks. Only code
// counts as a make invocation — a backtick span opening with "make "
// or a line of a fenced block starting with it — so prose may still
// "make sure"; words after it are targets until the first that is
// neither a target name nor a VAR=value.
func checkRefs(doc, text string, targets, tracked map[string]bool) []string {
	var offenders []string
	invoked := func(lineNo int, cmd string) {
		for _, w := range strings.Fields(cmd)[1:] {
			if strings.Contains(w, "=") {
				continue
			}
			if !makeTarget.MatchString(w) {
				return
			}
			if !targets[w] {
				offenders = append(offenders, fmt.Sprintf("%s:%d: `make %s` is not a Makefile target", doc, lineNo, w))
			}
		}
	}
	fenced := false
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if cmd := strings.TrimSpace(line); fenced && strings.HasPrefix(cmd, "make ") {
			invoked(i+1, cmd)
		}
		// Odd fields of a split on backticks are the line's code spans.
		for j, span := range strings.Split(line, "`") {
			if j%2 == 1 && strings.HasPrefix(span, "make ") {
				invoked(i+1, span)
			}
		}
		for _, f := range benchFile.FindAllString(line, -1) {
			if !tracked[f] {
				offenders = append(offenders, fmt.Sprintf("%s:%d: %s is not a tracked file", doc, i+1, f))
			}
		}
	}
	return offenders
}

type pkg struct {
	dir        string
	importPath string
	name       string
	files      []string
}

// listPackages asks the go tool for the module's packages, so the
// gate's scope is whatever builds — never a hand-maintained list.
func listPackages(pattern string) ([]pkg, error) {
	out, err := exec.Command("go", "list", "-f",
		"{{.Dir}}\t{{.ImportPath}}\t{{.Name}}\t{{range .GoFiles}}{{.}} {{end}}", pattern).Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return nil, fmt.Errorf("go list %s: %v: %s", pattern, err, ee.Stderr)
		}
		return nil, fmt.Errorf("go list %s: %v", pattern, err)
	}
	var pkgs []pkg
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		parts := strings.Split(line, "\t")
		if len(parts) != 4 {
			continue
		}
		p := pkg{dir: parts[0], importPath: parts[1], name: parts[2]}
		for _, f := range strings.Fields(parts[3]) {
			p.files = append(p.files, filepath.Join(p.dir, f))
		}
		if len(p.files) > 0 {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// checkPackage returns one line per documentation offender in p.
func checkPackage(p pkg) ([]string, error) {
	fset := token.NewFileSet()
	var offenders []string
	documented := false
	for _, f := range p.files {
		af, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if af.Doc != nil && strings.TrimSpace(af.Doc.Text()) != "" {
			documented = true
		}
		// Exported API documentation is a library contract; a main
		// package's exported identifiers have no importers to read it.
		if p.name == "main" {
			continue
		}
		for _, d := range af.Decls {
			offenders = append(offenders, checkDecl(fset, p.importPath, d)...)
		}
	}
	if !documented {
		offenders = append(offenders,
			fmt.Sprintf("%s: package has no doc comment (add one in %s)", p.importPath, p.files[0]))
	}
	return offenders, nil
}

// checkDecl reports exported top-level declarations without a doc
// comment. A doc comment on a grouped const/var/type block covers the
// whole group, matching godoc's rendering.
func checkDecl(fset *token.FileSet, importPath string, decl ast.Decl) []string {
	var offenders []string
	undocumented := func(name string, pos token.Pos) {
		p := fset.Position(pos)
		offenders = append(offenders, fmt.Sprintf("%s: exported %s undocumented (%s:%d)",
			importPath, name, p.Filename, p.Line))
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Doc != nil {
			return nil
		}
		// A method only surfaces in godoc when its receiver type does.
		if d.Recv != nil && !exportedReceiver(d.Recv) {
			return nil
		}
		undocumented("func "+d.Name.Name, d.Pos())
	case *ast.GenDecl:
		if d.Doc != nil {
			return nil
		}
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.Doc == nil {
					undocumented("type "+s.Name.Name, s.Pos())
				}
			case *ast.ValueSpec:
				if s.Doc != nil {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						undocumented(n.Name, n.Pos())
					}
				}
			}
		}
	}
	return offenders
}

// exportedReceiver reports whether a method receiver names an
// exported type.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}
