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
	text := strings.Join([]string{
		"Run `make ledger` on the parent, then `make loadtest-scale SCALE=100` (BENCH_10.json).", // 1: all live
		"Prose may make sure of anything; BENCH_10.run.json and BENCH_<n>.json are not records.", // 2: not code, not files
		"```sh",
		"make check           # what CI runs",
		"make retired-gate  # gate vs. committed BENCH_99.json", // 5: dangling target and file
		"```",
		"After `make ledger retired-leg` compare.", // 7: second target dangling
	}, "\n")
	off := checkRefs("RUNBOOK.md", text, targets, tracked)
	want := []string{
		"RUNBOOK.md:5: `make retired-gate` is not a Makefile target",
		"RUNBOOK.md:5: BENCH_99.json is not a tracked file",
		"RUNBOOK.md:7: `make retired-leg` is not a Makefile target",
	}
	if strings.Join(off, "\n") != strings.Join(want, "\n") {
		t.Fatalf("offenders:\n%s\nwant:\n%s", strings.Join(off, "\n"), strings.Join(want, "\n"))
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
