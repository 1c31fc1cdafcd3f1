package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"expertfind/internal/telemetry"
)

func write(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkFiles parses the given sources as one package and returns its
// offender lines, exercising checkPackage without invoking go list.
func checkFiles(t *testing.T, name string, sources map[string]string) []string {
	t.Helper()
	dir := t.TempDir()
	p := pkg{dir: dir, importPath: "example.com/" + name, name: name}
	for f, src := range sources {
		path := filepath.Join(dir, f)
		write(t, path, src)
		p.files = append(p.files, path)
	}
	off, err := checkPackage(p)
	if err != nil {
		t.Fatal(err)
	}
	return off
}

func TestCheckPackageDocComment(t *testing.T) {
	if off := checkFiles(t, "good", map[string]string{
		"doc.go":   "// Package good is documented.\npackage good\n",
		"other.go": "package good\n",
	}); len(off) != 0 {
		t.Fatalf("documented package flagged: %v", off)
	}
	off := checkFiles(t, "bad", map[string]string{"bad.go": "package bad\n"})
	if len(off) != 1 || !strings.Contains(off[0], "no doc comment") {
		t.Fatalf("offenders = %v, want missing package doc", off)
	}
	// A detached comment (blank line before the clause) is not a doc
	// comment.
	off = checkFiles(t, "detached", map[string]string{
		"a.go": "// Some file header.\n\npackage detached\n",
	})
	if len(off) != 1 {
		t.Fatalf("offenders = %v, want detached header flagged", off)
	}
}

func TestCheckPackageExportedDecls(t *testing.T) {
	off := checkFiles(t, "api", map[string]string{
		"api.go": `// Package api is documented.
package api

func Undocumented() {}

// Documented does things.
func Documented() {}

func internal() {}

type Thing int

// Method on an exported receiver needs a comment too.
type Box struct{}

func (Box) Get() int { return 0 }

type hidden struct{}

func (hidden) Exported() {}

// Grouped doc covers the whole block.
const (
	A = 1
	B = 2
)

var Loose = 3
`,
	})
	want := []string{"func Undocumented", "type Thing", "func Get", "Loose"}
	if len(off) != len(want) {
		t.Fatalf("offenders = %v, want %d entries for %v", off, len(want), want)
	}
	joined := strings.Join(off, "\n")
	for _, w := range want {
		if !strings.Contains(joined, w) {
			t.Errorf("offenders missing %q in:\n%s", w, joined)
		}
	}
}

func TestCheckPackageMainExemption(t *testing.T) {
	// Exported identifiers in package main have no importers; only the
	// package doc is required.
	if off := checkFiles(t, "main", map[string]string{
		"main.go": "// Command x does things.\npackage main\n\nfunc Exported() {}\n\nfunc main() {}\n",
	}); len(off) != 0 {
		t.Fatalf("main package exported decls flagged: %v", off)
	}
}

func TestRepositoryClean(t *testing.T) {
	// The module pattern works from any directory inside the module,
	// including this test's working directory.
	pkgs, err := listPackages("expertfind/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("go list found only %d packages", len(pkgs))
	}
	var offenders []string
	for _, p := range pkgs {
		off, err := checkPackage(p)
		if err != nil {
			t.Fatal(err)
		}
		offenders = append(offenders, off...)
	}
	if len(offenders) != 0 {
		t.Fatalf("repository packages lack doc comments: %v", offenders)
	}
}

func TestCheckRefs(t *testing.T) {
	targets := phonyTargets("GO ?= go\n\n.PHONY: all ledger loadtest-scale check\n\nall: check\n")
	tracked := map[string]bool{"BENCH_10.json": true}
	cmds := map[string][]string{
		"serve":   {"addr", "corpus", "segment-dir"},
		"datagen": {"stream"},
	}
	text := strings.Join([]string{
		"Run `make ledger` on the parent, then `make loadtest-scale SCALE=100` (BENCH_10.json).", // 1: all live
		"Prose may make sure of anything; BENCH_10.run.json and BENCH_<n>.json are not records.", // 2: not code, not files
		"```sh",
		"make check           # what CI runs",
		"make retired-gate  # gate vs. committed BENCH_99.json", // 5: dangling target and file
		"```",
		"After `make ledger retired-leg` compare.",                                                             // 7: second target dangling
		"Run `serve -corpus c.gz -segment-dir d -h` or `go run ./cmd/serve -addr=:1`; prose says serve -gone.", // 8: all live
		"```sh",
		"/tmp/serve -addr :8 -stream-corpus c.gz",                   // 10: a retired flag
		"/tmp/serve -segment-dir d -ingest-seed 3 & # -not-checked", // 11: up to the operator
		"go run ./cmd/datagen -stream c.gz -save x",                 // 12: another command's table
		"curl -s localhost:8/v1/find -retired",                      // 13: no command of the module
		"```",
	}, "\n")
	off := checkRefs("RUNBOOK.md", text, targets, tracked, cmds)
	want := []string{
		"RUNBOOK.md:5: `make retired-gate` is not a Makefile target",
		"RUNBOOK.md:5: BENCH_99.json is not a tracked file",
		"RUNBOOK.md:7: `make retired-leg` is not a Makefile target",
		"RUNBOOK.md:10: `serve -stream-corpus` is not a flag cmd/serve registers",
		"RUNBOOK.md:11: `serve -ingest-seed` is not a flag cmd/serve registers",
		"RUNBOOK.md:12: `datagen -save` is not a flag cmd/datagen registers",
	}
	if strings.Join(off, "\n") != strings.Join(want, "\n") {
		t.Fatalf("offenders:\n%s\nwant:\n%s", strings.Join(off, "\n"), strings.Join(want, "\n"))
	}

	// A workflow names targets in its steps' run lines.
	workflow := strings.Join([]string{
		"  ledger:",
		"    steps:",
		"      - name: Ledger",
		"        run: make ledger SEED=11", // 4: live
		"      - run: make retired-job",    // 5: dangling
		"      - name: make the build",     // 6: a step name, not a run
		"        run: go test ./...",
	}, "\n")
	off = checkRefs("ci.yml", workflow, targets, tracked, cmds)
	if want := "ci.yml:5: `make retired-job` is not a Makefile target"; strings.Join(off, "\n") != want {
		t.Fatalf("workflow offenders:\n%s\nwant:\n%s", strings.Join(off, "\n"), want)
	}
}

// helpOf returns the -h output of a flag set holding flags.
func helpOf(flags func(fs *flag.FlagSet)) string {
	var out bytes.Buffer
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(&out)
	flags(fs)
	fs.Parse([]string{"-h"})
	return out.String()
}

// table renders the flag table of help, failing t on a parse error.
func table(t *testing.T, help string) string {
	t.Helper()
	flags, err := parseHelp(help)
	if err != nil {
		t.Fatal(err)
	}
	return flagTable(flags)
}

func TestFlagTable(t *testing.T) {
	got := table(t, helpOf(func(fs *flag.FlagSet) {
		fs.String("addr", ":8080", "listen address")
		fs.String("dir", "", "store directory | none")
		fs.Duration("tick", 30*time.Second, "maintenance interval (0 disables)")
		fs.Duration("wait", 0, "grace period")
		fs.Bool("v", false, "verbose")
		fs.Bool("stamp", true, "timestamp records")
		fs.Int("n", 0, "workers (0 = default)")
		fs.Float64("rate", 0.5, "sampling rate\nacross two lines")
		fs.String("run", "all", "ids to run")
	}))
	want := strings.Join([]string{
		"| Flag | Default | Meaning |",
		"|---|---|---|",
		"| `-addr` | `:8080` | listen address |",
		"| `-dir` |  | store directory \\| none |",
		"| `-n` | `0` | workers (0 = default) |",
		"| `-rate` | `0.5` | sampling rate across two lines |",
		"| `-run` | `all` | ids to run |",
		"| `-stamp` | `true` | timestamp records |",
		"| `-tick` | `30s` | maintenance interval (0 disables) |",
		"| `-v` | `false` | verbose |",
		"| `-wait` | `0s` | grace period |",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("table:\n%s\nwant:\n%s", got, want)
	}

	// A back-quoted name in a usage hides the type, and with it the zero
	// default the table would print.
	if _, err := parseHelp(helpOf(func(fs *flag.FlagSet) {
		fs.String("out", "", "write the report to `file`")
	})); err == nil {
		t.Fatal("a back-quoted usage name parsed without an error")
	}

	// A string flag's usage ending in an unquoted "(default …)" prints
	// exactly like a registered default, so it is refused.
	_, err := parseHelp(helpOf(func(fs *flag.FlagSet) {
		fs.String("run", "", "ids to run (default all)")
	}))
	if err == nil || !strings.Contains(err.Error(), "-run") {
		t.Fatalf("an unquoted string default in a usage: err = %v, want one naming -run", err)
	}
}

// TestStaleFlagBlocks checks that a flag block fails the check after
// its command changes a usage string or registers a flag, until it is
// regenerated.
func TestStaleFlagBlocks(t *testing.T) {
	before := func(fs *flag.FlagSet) {
		fs.String("addr", ":8080", "listen address")
		fs.Int("cache-size", 4096, "cache capacity in entries")
	}
	doc := "## serve\n\n<!-- docscheck:begin flags serve -->\n" + table(t, helpOf(before)) + "<!-- docscheck:end -->\n\nAfter the table.\n"
	for name, c := range map[string]struct {
		flags func(*flag.FlagSet)
		want  string
	}{
		"unchanged": {before, ""},
		"usage changed": {func(fs *flag.FlagSet) {
			fs.String("addr", ":8080", "listen address, host:port")
			fs.Int("cache-size", 4096, "cache capacity in entries")
		}, "OPS.md:3: generated block \"flags serve\" is stale (run: go run ./cmd/docscheck -write); want \"| `-addr` | `:8080` | listen address, host:port |\""},
		"flag added": {func(fs *flag.FlagSet) {
			before(fs)
			fs.Bool("debug", false, "mount pprof")
		}, "OPS.md:3: generated block \"flags serve\" is stale (run: go run ./cmd/docscheck -write); want \"| `-debug` | `false` | mount pprof |\""},
	} {
		blocks := map[string]string{"flags serve": table(t, helpOf(c.flags))}
		fixed, off, err := generate("OPS.md", doc, blocks, map[string]int{})
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(off, "\n"); got != c.want {
			t.Errorf("%s: offenders %q, want %q", name, got, c.want)
		}
		if _, off, _ := generate("OPS.md", fixed, blocks, map[string]int{}); len(off) != 0 {
			t.Errorf("%s: regenerated document still offends: %v", name, off)
		}
		if !strings.HasSuffix(fixed, "<!-- docscheck:end -->\n\nAfter the table.\n") || !strings.HasPrefix(fixed, "## serve\n\n") {
			t.Errorf("%s: regeneration moved the text around the block:\n%s", name, fixed)
		}
	}
}

func TestStaleMetricsBlock(t *testing.T) {
	fams := []telemetry.FamilySnapshot{
		{Name: "expertfind_b_total", Type: telemetry.CounterType, Help: "Bees | counted."},
		{Name: "expertfind_a_seconds", Type: telemetry.HistogramType, Help: "Wall time.", LabelNames: []string{"route", "code"}},
	}
	metrics := metricsTable(fams)
	want := "| Metric | Type | Labels | Meaning |\n|---|---|---|---|\n" +
		"| `expertfind_a_seconds` | histogram | `route`, `code` | Wall time. |\n" +
		"| `expertfind_b_total` | counter | – | Bees \\| counted. |\n"
	if metrics != want {
		t.Fatalf("table:\n%s\nwant:\n%s", metrics, want)
	}
	doc := "# Ops\n<!-- docscheck:begin metrics -->\n" + metrics + "<!-- docscheck:end -->\n"
	fams = append(fams, telemetry.FamilySnapshot{Name: "expertfind_c", Type: telemetry.GaugeType, Help: "New."})
	_, off, err := generate("OPS.md", doc, map[string]string{"metrics": metricsTable(fams)}, map[string]int{})
	if err != nil {
		t.Fatal(err)
	}
	if len(off) != 1 || !strings.Contains(off[0], "OPS.md:2: generated block \"metrics\" is stale") || !strings.Contains(off[0], "expertfind_c") {
		t.Fatalf("offenders %v, want one stale metrics block naming expertfind_c", off)
	}
}

func TestGeneratedBlockNames(t *testing.T) {
	blocks := map[string]string{"metrics": "x\n"}
	count := map[string]int{}
	doc := strings.Join([]string{
		"<!-- docscheck:begin metrics -->", // 1
		"x",
		"<!-- docscheck:end -->",
		"<!-- docscheck:begin metrics -->", // 4: counted twice
		"x",
		"<!-- docscheck:end -->",
		"<!-- docscheck:begin retired -->", // 7: no such block
		"old",
		"<!-- docscheck:end -->",
		"",
	}, "\n")
	fixed, off, err := generate("A.md", doc, blocks, count)
	if err != nil {
		t.Fatal(err)
	}
	if want := `A.md:7: no generated block is named "retired"`; strings.Join(off, "\n") != want || fixed != doc {
		t.Fatalf("offenders %q, want %q; text changed: %v", off, want, fixed != doc)
	}
	if count["metrics"] != 2 || count["retired"] != 1 {
		t.Fatalf("counts %v, want metrics 2, retired 1", count)
	}
	if _, _, err := generate("B.md", "<!-- docscheck:begin metrics -->\nx\n", blocks, count); err == nil {
		t.Error("a block without its end marker passed")
	}
}

func TestDesignRefs(t *testing.T) {
	sections := designSections("# DESIGN\n\n## 1. Substitutions\n\ntext ## 4. not a heading\n## 2. Failure model\n### 3. a subsection\n")
	if got := len(sections); got != 2 || !sections["1"] || !sections["2"] {
		t.Fatalf("sections %v, want 1 and 2", sections)
	}
	text := strings.Join([]string{
		"See DESIGN.md §2 and DESIGN §1.",            // 1: live
		"The paper's §3.3 and DESIGN.md, §9 differ.", // 2: not a DESIGN reference
		"Gone: DESIGN.md §3, and DESIGN §12.",        // 3: two dangling
	}, "\n")
	want := []string{
		"README.md:3: DESIGN.md §3 names no section of DESIGN.md",
		"README.md:3: DESIGN §12 names no section of DESIGN.md",
	}
	if off := checkDesignRefs("README.md", 1, text, sections); strings.Join(off, "\n") != strings.Join(want, "\n") {
		t.Fatalf("offenders:\n%s\nwant:\n%s", strings.Join(off, "\n"), strings.Join(want, "\n"))
	}

	root := t.TempDir()
	write(t, filepath.Join(root, "a", "a.go"), `// Package a follows DESIGN.md §1.
package a

// F is DESIGN §7's rule, which is gone.
func F() string {
	return "DESIGN §8 in a string is not a comment"
}

/* A block comment:
   DESIGN.md §2 holds,
   DESIGN.md §5 does not. */
`)
	write(t, filepath.Join(root, "a", "testdata", "skip.go"), "// DESIGN §9\npackage skip\n")
	write(t, filepath.Join(root, ".hidden", "skip.go"), "// DESIGN §9\npackage skip\n")
	off, err := checkGoComments(root, sections)
	if err != nil {
		t.Fatal(err)
	}
	want = []string{
		"a/a.go:4: DESIGN §7 names no section of DESIGN.md",
		"a/a.go:11: DESIGN.md §5 names no section of DESIGN.md",
	}
	if strings.Join(off, "\n") != strings.Join(want, "\n") {
		t.Fatalf("offenders:\n%s\nwant:\n%s", strings.Join(off, "\n"), strings.Join(want, "\n"))
	}
}

func TestCheckPackageMap(t *testing.T) {
	text := strings.Join([]string{
		"## Layering",
		"| `internal/gone` | a table outside the map |", // 2: other section
		"## Package map",
		"| Package | Responsibility |",
		"|---|---|",
		"| `internal/index` | the index; not `internal/core` |", // 6: only the first cell names
		"| `internal/retired` | a package that moved out |",     // 7: stale row
		"| `cmd/*` | commands |",
		"| `internal/index` | a second row |", // 9: duplicate
		"## Request lifecycle",
	}, "\n")
	off := checkPackageMap([]string{"internal/core", "internal/index"}, "ARCH.md", text)
	want := []string{
		"ARCH.md:9: internal/index already has a row at line 6",
		"ARCH.md: internal/core has no row in the package map",
		"ARCH.md:7: internal/retired is not a package of the module",
	}
	if strings.Join(off, "\n") != strings.Join(want, "\n") {
		t.Fatalf("offenders:\n%s\nwant:\n%s", strings.Join(off, "\n"), strings.Join(want, "\n"))
	}
}

// TestCheckPackageMapStaleRowsInLineOrder pins the order of the stale
// rows' report: by line, the same on every run.
func TestCheckPackageMapStaleRowsInLineOrder(t *testing.T) {
	text := strings.Join([]string{
		"## Package map",
		"| `internal/zeta` | gone |",
		"| `internal/alpha` | gone |",
		"| `internal/core` | kept |",
		"| `internal/mid` | gone |",
	}, "\n")
	want := []string{
		"ARCH.md:2: internal/zeta is not a package of the module",
		"ARCH.md:3: internal/alpha is not a package of the module",
		"ARCH.md:5: internal/mid is not a package of the module",
	}
	for run := 0; run < 20; run++ {
		off := checkPackageMap([]string{"internal/core"}, "ARCH.md", text)
		if strings.Join(off, "\n") != strings.Join(want, "\n") {
			t.Fatalf("run %d offenders:\n%s\nwant:\n%s", run, strings.Join(off, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestCheckPackageMapMissingSection checks that a document without the
// "## Package map" section reports every package as missing, and that
// a table under another heading does not stand in for it.
func TestCheckPackageMapMissingSection(t *testing.T) {
	text := strings.Join([]string{
		"## Packages",
		"| `internal/core` | a table under another heading |",
	}, "\n")
	off := checkPackageMap([]string{"internal/core", "internal/index"}, "ARCH.md", text)
	want := []string{
		"ARCH.md: internal/core has no row in the package map",
		"ARCH.md: internal/index has no row in the package map",
	}
	if strings.Join(off, "\n") != strings.Join(want, "\n") {
		t.Fatalf("offenders:\n%s\nwant:\n%s", strings.Join(off, "\n"), strings.Join(want, "\n"))
	}
}
