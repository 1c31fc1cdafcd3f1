// Command docscheck writes and checks the documentation; it is the one
// tool the docs-check CI step runs. It checks that every package
// carries a package doc comment and every exported top-level
// declaration of a library package a doc comment of its own (the
// package list comes from `go list ./...`, so a new package is gated
// the day it lands); that the documents of refDocs name a `make
// <target>` only when the Makefile's .PHONY line lists it, a
// BENCH_<n>.json only when git tracks it, and run a command of the
// module only with flags it registers; that every `DESIGN.md §N` or
// `DESIGN §N`, in those documents or in a Go comment, names a section
// of DESIGN.md; and that ARCHITECTURE.md's package map names the
// module's internal packages, one row each.
//
// It also renders the generated blocks: the metrics reference from the
// telemetry registry, and the serve and loadtest flag tables from each
// command's own FlagSet, as its -h prints it (name, default, usage). A
// block sits between `<!-- docscheck:begin NAME -->` and
// `<!-- docscheck:end -->`, and each NAME has exactly one block.
//
// Usage:
//
//	docscheck          # check; exit 1 listing each offender with its file and line
//	docscheck -write   # regenerate every block in place, then check
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"expertfind/internal/telemetry"

	// Imported for their metric registrations only.
	_ "expertfind/internal/core"
	_ "expertfind/internal/crawler"
	_ "expertfind/internal/httpapi"
	_ "expertfind/internal/index"
	_ "expertfind/internal/rescache"
	_ "expertfind/internal/scatter"
	_ "expertfind/internal/slo"
	_ "expertfind/internal/socialgraph"
)

func main() {
	write := flag.Bool("write", false, "regenerate every generated block in place before checking")
	flag.Parse()
	offenders, err := check(*write)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(2)
	}
	sort.Strings(offenders)
	for _, o := range offenders {
		fmt.Println(o)
	}
	if len(offenders) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d documentation offender(s)\n", len(offenders))
		os.Exit(1)
	}
	fmt.Println("docscheck: every package documented; generated blocks current; the documents name only live make targets, tracked BENCH files, registered flags and DESIGN sections; the package map matches")
}

// refDocs are the documents, relative to the module root, whose make
// targets, BENCH files, command flags and DESIGN sections must exist.
// The markdown ones may hold generated blocks.
var refDocs = []string{
	"README.md", "OPERATIONS.md", "DESIGN.md", "EXPERIMENTS.md", "ARCHITECTURE.md",
	".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml",
}

// check runs every check over the module's packages, Makefile, git
// index, commands and documents, first regenerating the documents'
// generated blocks when write is set.
func check(write bool) ([]string, error) {
	pkgs, err := listPackages("./...")
	if err != nil {
		return nil, err
	}
	var offenders []string
	for _, p := range pkgs {
		off, err := checkPackage(p)
		if err != nil {
			return nil, err
		}
		offenders = append(offenders, off...)
	}
	root, err := run("", "go", "list", "-m", "-f", "{{.Dir}}")
	if err != nil {
		return nil, err
	}
	root = strings.TrimSpace(root)
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		return nil, err
	}
	targets := phonyTargets(string(mk))
	files, err := run(root, "git", "ls-files", "BENCH_*")
	if err != nil {
		return nil, err
	}
	tracked := map[string]bool{}
	for _, f := range strings.Fields(files) {
		tracked[f] = true
	}
	mains, err := filepath.Glob(filepath.Join(root, "cmd", "*", "main.go"))
	if err != nil {
		return nil, err
	}
	flags := map[string][]flagDoc{}
	cmds := map[string][]string{}
	for _, m := range mains {
		name := filepath.Base(filepath.Dir(m))
		help, err := run(root, "go", "run", "./cmd/"+name, "-h")
		if err != nil {
			return nil, err
		}
		if flags[name], err = parseHelp(help); err != nil {
			return nil, fmt.Errorf("cmd/%s: %v", name, err)
		}
		for _, f := range flags[name] {
			cmds[name] = append(cmds[name], f.name)
		}
	}
	blocks := map[string]string{
		"metrics":        metricsTable(telemetry.Default().Gather()),
		"flags serve":    flagTable(flags["serve"]),
		"flags loadtest": flagTable(flags["loadtest"]),
	}
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		return nil, err
	}
	sections := designSections(string(design))
	count := map[string]int{}
	for _, doc := range refDocs {
		path := filepath.Join(root, doc)
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		text := string(b)
		if strings.HasSuffix(doc, ".md") {
			fresh, stale, err := generate(doc, text, blocks, count)
			if err != nil {
				return nil, err
			}
			if write && fresh != text {
				if err := os.WriteFile(path, []byte(fresh), 0o644); err != nil {
					return nil, err
				}
				text, stale = fresh, nil
			}
			offenders = append(offenders, stale...)
		}
		offenders = append(offenders, checkRefs(doc, text, targets, tracked, cmds)...)
		offenders = append(offenders, checkDesignRefs(doc, 1, text, sections)...)
	}
	for name := range blocks {
		if count[name] != 1 {
			offenders = append(offenders, fmt.Sprintf("the generated block %q sits in %d places, want 1", name, count[name]))
		}
	}
	off, err := checkGoComments(root, sections)
	if err != nil {
		return nil, err
	}
	offenders = append(offenders, off...)
	var internal []string
	for _, p := range pkgs {
		// go list reports every package directory under root, so Rel cannot fail.
		if rel, _ := filepath.Rel(root, p.dir); strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
			internal = append(internal, filepath.ToSlash(rel))
		}
	}
	arch, err := os.ReadFile(filepath.Join(root, mapDoc))
	if err != nil {
		return nil, err
	}
	return append(offenders, checkPackageMap(internal, mapDoc, string(arch))...), nil
}

// run runs a command in dir and returns its combined output.
func run(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return string(out), nil
}

const (
	beginMarker = "<!-- docscheck:begin "
	endMarker   = "<!-- docscheck:end -->"
)

// generate returns doc's text with the body of every generated block
// replaced by blocks[name], counting each name in count, and one
// offender per block that was stale (naming the first line that moved)
// or that no entry of blocks renders.
func generate(doc, text string, blocks map[string]string, count map[string]int) (string, []string, error) {
	var out strings.Builder
	var offenders []string
	line := 1
	for {
		i := strings.Index(text, beginMarker)
		if i < 0 {
			out.WriteString(text)
			return out.String(), offenders, nil
		}
		line += strings.Count(text[:i], "\n")
		head, rest, ok := strings.Cut(text[i:], "-->\n")
		body, tail, closed := strings.Cut(rest, endMarker)
		if !ok || !closed {
			return "", nil, fmt.Errorf("%s:%d: a generated block without %s", doc, line, endMarker)
		}
		name := strings.TrimSpace(strings.TrimPrefix(head, beginMarker))
		count[name]++
		want, known := blocks[name]
		switch {
		case !known:
			offenders = append(offenders, fmt.Sprintf("%s:%d: no generated block is named %q", doc, line, name))
			want = body
		case body != want:
			offenders = append(offenders, fmt.Sprintf("%s:%d: generated block %q is stale (run: go run ./cmd/docscheck -write)%s",
				doc, line, name, firstDiff(body, want)))
		}
		out.WriteString(text[:i] + head + "-->\n" + want + endMarker)
		line += strings.Count(head+"-->\n"+body, "\n")
		text = tail
	}
}

// firstDiff names the first line where got, which differs from want,
// parts from it.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i, line := range w {
		if i >= len(g) || g[i] != line {
			return fmt.Sprintf("; want %q", line)
		}
	}
	return fmt.Sprintf("; extra line %q", g[len(w)])
}

// metricsTable renders the metrics reference, one row per family
// (name, type, labels, meaning), sorted by name so the output does not
// depend on package initialization order.
func metricsTable(fams []telemetry.FamilySnapshot) string {
	sort.Slice(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })
	var sb strings.Builder
	sb.WriteString("| Metric | Type | Labels | Meaning |\n|---|---|---|---|\n")
	for _, f := range fams {
		labels := "–"
		if len(f.LabelNames) > 0 {
			labels = "`" + strings.Join(f.LabelNames, "`, `") + "`"
		}
		fmt.Fprintf(&sb, "| `%s` | %s | %s | %s |\n", f.Name, f.Type, labels, strings.ReplaceAll(f.Help, "|", "\\|"))
	}
	return sb.String()
}

// flagDoc is one flag as its command's -h prints it.
type flagDoc struct{ name, def, usage string }

// zeroDefault is the default of a flag whose -h entry prints none, by
// the type name the entry shows: flag.PrintDefaults omits zero values.
var zeroDefault = map[string]string{
	"": "false", "int": "0", "uint": "0", "float": "0", "duration": "0s", "string": "",
}

// parseHelp reads flag.PrintDefaults output, one flagDoc per flag in
// the order printed.
func parseHelp(help string) ([]flagDoc, error) {
	var flags []flagDoc
	lines := strings.Split(help, "\n")
	for i := 0; i < len(lines); i++ {
		head, ok := strings.CutPrefix(lines[i], "  -")
		if !ok {
			continue
		}
		head, usage, _ := strings.Cut(head, "\t") // a one-letter bool flag keeps its usage on this line
		name, typ, _ := strings.Cut(head, " ")
		for ; i+1 < len(lines) && strings.HasPrefix(lines[i+1], "    \t"); i++ {
			usage += " " + strings.TrimPrefix(lines[i+1], "    \t")
		}
		f := flagDoc{name: name, usage: strings.TrimSpace(usage)}
		if f.def, ok = zeroDefault[typ]; !ok {
			return nil, fmt.Errorf("-%s shows the type %q: drop the back quotes from its usage, so its zero default is known", name, typ)
		}
		// The flag package quotes a string default in this suffix, so an
		// unquoted one is a usage string posing as a default.
		if j := strings.LastIndex(f.usage, " (default "); j >= 0 && strings.HasSuffix(f.usage, ")") {
			f.def, f.usage = f.usage[j+len(" (default "):len(f.usage)-1], f.usage[:j]
			if typ == "string" {
				def, err := strconv.Unquote(f.def)
				if err != nil {
					return nil, fmt.Errorf("-%s's usage ends in an unquoted (default %s), which -h prints as if it were the registered default: reword it", name, f.def)
				}
				f.def = def
			}
		}
		flags = append(flags, f)
	}
	return flags, nil
}

// flagTable renders flags as a markdown table: name, default, usage.
func flagTable(flags []flagDoc) string {
	var sb strings.Builder
	sb.WriteString("| Flag | Default | Meaning |\n|---|---|---|\n")
	for _, f := range flags {
		if f.def != "" {
			f.def = "`" + f.def + "`"
		}
		fmt.Fprintf(&sb, "| `-%s` | %s | %s |\n", f.name, f.def, strings.ReplaceAll(f.usage, "|", "\\|"))
	}
	return sb.String()
}

var (
	designSection = regexp.MustCompile(`(?m)^## ([0-9]+)\. `)
	designRef     = regexp.MustCompile(`DESIGN(?:\.md)? §([0-9]+)`)
)

// designSections is the set of DESIGN.md's numbered sections.
func designSections(design string) map[string]bool {
	out := map[string]bool{}
	for _, m := range designSection.FindAllStringSubmatch(design, -1) {
		out[m[1]] = true
	}
	return out
}

// checkDesignRefs returns one line per `DESIGN.md §N` or `DESIGN §N`
// in text, which starts at line first of doc, that names no section.
func checkDesignRefs(doc string, first int, text string, sections map[string]bool) []string {
	var offenders []string
	for _, m := range designRef.FindAllStringSubmatchIndex(text, -1) {
		if !sections[text[m[2]:m[3]]] {
			offenders = append(offenders, fmt.Sprintf("%s:%d: %s names no section of DESIGN.md",
				doc, first+strings.Count(text[:m[0]], "\n"), text[m[0]:m[1]]))
		}
	}
	return offenders
}

// checkGoComments runs checkDesignRefs over every comment of every Go
// file under root, outside hidden and testdata directories.
func checkGoComments(root string, sections map[string]bool) ([]string, error) {
	var offenders []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go"):
			return nil
		}
		af, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path) // WalkDir stays under root
		for _, g := range af.Comments {
			for _, c := range g.List {
				offenders = append(offenders, checkDesignRefs(filepath.ToSlash(rel), fset.Position(c.Pos()).Line, c.Text, sections)...)
			}
		}
		return nil
	})
	return offenders, err
}

// mapDoc holds the module's one package map, the table under its
// "## Package map".
const mapDoc = "ARCHITECTURE.md"

var mapPackage = regexp.MustCompile("`(internal/[a-z0-9/]+)`")

// checkPackageMap compares the internal packages (module-relative
// directories) with the rows of doc's package map: every package needs
// exactly one row, a row may name only packages that exist, and only a
// row's first cell names its packages.
func checkPackageMap(pkgs []string, doc, text string) []string {
	var offenders []string
	rows := map[string]int{}
	inMap := false
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "## ") {
			inMap = line == "## Package map"
		}
		if !inMap || !strings.HasPrefix(line, "| ") {
			continue
		}
		cell, _, _ := strings.Cut(line[2:], "|")
		for _, m := range mapPackage.FindAllStringSubmatch(cell, -1) {
			if first, dup := rows[m[1]]; dup {
				offenders = append(offenders, fmt.Sprintf("%s:%d: %s already has a row at line %d", doc, i+1, m[1], first))
			} else {
				rows[m[1]] = i + 1
			}
		}
	}
	for _, p := range pkgs {
		if _, ok := rows[p]; !ok {
			offenders = append(offenders, fmt.Sprintf("%s: %s has no row in the package map", doc, p))
		}
		delete(rows, p)
	}
	stale := make([]string, 0, len(rows))
	for name := range rows {
		stale = append(stale, name)
	}
	sort.Slice(stale, func(i, j int) bool { return rows[stale[i]] < rows[stale[j]] })
	for _, name := range stale {
		offenders = append(offenders, fmt.Sprintf("%s:%d: %s is not a package of the module", doc, rows[name], name))
	}
	return offenders
}

// phonyTargets is the Makefile's .PHONY list: the targets that exist.
func phonyTargets(makefile string) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(makefile, "\n") {
		if rest, ok := strings.CutPrefix(line, ".PHONY:"); ok {
			for _, t := range strings.Fields(rest) {
				out[t] = true
			}
		}
	}
	return out
}

var (
	makeTarget = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
	benchFile  = regexp.MustCompile(`BENCH_[0-9]+\.json`)
	flagArg    = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(=|$)`)
)

// unregisteredFlags returns the command of cmds (name -> registered
// flags) that a line of code runs — as `go run ./cmd/X` anywhere in it,
// or as X or /tmp/X first — and the flags it passes that the command
// does not register. Words after a shell operator or comment belong to
// something else.
func unregisteredFlags(code string, cmds map[string][]string) (string, []string) {
	if _, rest, ok := strings.Cut(code, "go run ./cmd/"); ok {
		code = rest
	}
	words := strings.Fields(strings.TrimPrefix(code, "/tmp/"))
	if len(words) == 0 {
		return "", nil
	}
	registered, ok := cmds[words[0]]
	if !ok {
		return "", nil
	}
	var bad []string
	for _, w := range words[1:] {
		if strings.ContainsAny(w[:1], "|&;#>") {
			break
		}
		if m := flagArg.FindStringSubmatch(w); m != nil && m[1] != "h" && m[1] != "help" && !slices.Contains(registered, m[1]) {
			bad = append(bad, m[1])
		}
	}
	return words[0], bad
}

// checkRefs returns one line per make target in doc's text that
// targets lacks, per BENCH_<n>.json that tracked lacks and per flag a
// command of cmds (name -> registered flags) is run with but does not
// register. Only code counts as an invocation — a backtick span, a line
// of a fenced block or a workflow step's `run:` line — so prose may
// still "make sure" or mention "serve -x". After "make ", words are
// targets until the first that is neither a target name nor a
// VAR=value.
func checkRefs(doc, text string, targets, tracked map[string]bool, cmds map[string][]string) []string {
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
	ran := func(lineNo int, code string) {
		name, bad := unregisteredFlags(code, cmds)
		for _, f := range bad {
			offenders = append(offenders, fmt.Sprintf("%s:%d: `%s -%s` is not a flag cmd/%s registers", doc, lineNo, name, f, name))
		}
	}
	fenced := false
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		cmd := strings.TrimSpace(line)
		step, isStep := strings.CutPrefix(strings.TrimPrefix(cmd, "- "), "run: ")
		if isStep {
			cmd = step
		}
		if fenced || isStep {
			if strings.HasPrefix(cmd, "make ") {
				invoked(i+1, cmd)
			}
			ran(i+1, cmd)
		}
		// Odd fields of a split on backticks are the line's code spans.
		for j, span := range strings.Split(line, "`") {
			if j%2 == 1 {
				if strings.HasPrefix(span, "make ") {
					invoked(i+1, span)
				}
				ran(i+1, span)
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
	out, err := run("", "go", "list", "-f", "{{.Dir}}\t{{.ImportPath}}\t{{.Name}}\t{{range .GoFiles}}{{.}} {{end}}", pattern)
	if err != nil {
		return nil, err
	}
	var pkgs []pkg
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
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
