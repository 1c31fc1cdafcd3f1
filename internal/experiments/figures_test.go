package experiments

import (
	"os"
	"strings"
	"testing"
)

// figuresCheckOnly are the sections that rebuild the index once per
// level or method; `make figures-check` compares them with the full
// run.
var figuresCheckOnly = map[string]bool{"baselines": true, "crawl": true, "faults": true}

// committedSections splits cmd/experiments output into its sections'
// bodies by "== id ==" header, each body ending in the blank line the
// command prints after it.
func committedSections(text string) map[string]string {
	bodies := map[string]string{}
	id := ""
	for _, line := range strings.SplitAfter(text, "\n") {
		if h, ok := strings.CutPrefix(line, "== "); ok && strings.HasSuffix(h, " ==\n") {
			id = strings.TrimSuffix(h, " ==\n")
			continue
		}
		if id != "" {
			bodies[id] += line
		}
	}
	return bodies
}

// TestFiguresMatchCommittedOutput renders every section but
// figuresCheckOnly over the default system and requires each to equal
// its block of the committed experiments_output.txt byte for byte: a
// moved figure is a changed analysis or ranking.
func TestFiguresMatchCommittedOutput(t *testing.T) {
	raw, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	committed := committedSections(string(raw))
	sys := Shared()
	checked := 0
	for _, sec := range Sections(DefaultFaultSweep()) {
		want, ok := committed[sec.ID]
		if !ok {
			t.Errorf("%s: no \"== %s ==\" block in experiments_output.txt", sec.ID, sec.ID)
			continue
		}
		if figuresCheckOnly[sec.ID] {
			continue
		}
		checked++
		if got := sec.Run(sys).String() + "\n"; got != want {
			t.Errorf("%s moved from experiments_output.txt:\n--- got\n%s--- want\n%s", sec.ID, got, want)
		}
	}
	if checked != 14 {
		t.Errorf("checked %d sections, want 14", checked)
	}
}
