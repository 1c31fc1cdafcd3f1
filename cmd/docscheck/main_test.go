package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
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

func TestCheckFlags(t *testing.T) {
	src := filepath.Join(t.TempDir(), "main.go")
	write(t, src, `// Command x serves.
package main

import (
	"flag"
	"time"
)

func parseFlags(args []string) {
	var o struct {
		addr string
		wait time.Duration
	}
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.DurationVar(&o.wait, "wait", 0, "grace period")
	fs.Parse(args)
}

func main() {
	seed := flag.Int64("seed", 1, "corpus seed")
	undocumented := flag.Bool("quiet", false, "say less")
	flag.Parse()
	_ = fmt.Sprint("seed", *seed, *undocumented, strings.Repeat("-", 3))
}
`)
	registered, err := registeredFlags(src)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(registered, " "); got != "addr wait seed quiet" {
		t.Fatalf("registered flags %q, want addr wait seed quiet", got)
	}
	text := strings.Join([]string{
		"## other",
		"| `-quiet` | `false` | another command's flag of the same name |", // 2: other section
		"## x",
		"| Flag | Default | Meaning |",
		"|---|---|---|",
		"| `-addr` / `-wait` | `:8080` / `0` | two flags, one row; see `-seed` |", // 6
		"| `-seed` | `1` | corpus seed |",
		"| `-retired` | | a flag the source dropped |", // 8: dangling row
		"### x runbook",
		"| `-addr` | | a second row |", // 10: duplicate
		"## later",
		"| `-gone` | | not x's table |",
	}, "\n")
	off := checkFlags("cmd/x", registered, "OPS.md", "x", text)
	want := []string{
		"OPS.md:10: -addr already has a row at line 6",
		"OPS.md: cmd/x registers -quiet, which the \"x\" table has no row for",
		"OPS.md:8: -retired is not a flag cmd/x registers",
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
