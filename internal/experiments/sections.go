package experiments

import "fmt"

// Section is one block of cmd/experiments' output, printed under an
// "== ID ==" header: an experiment id and the run that renders it.
type Section struct {
	ID  string
	Run func(*System) fmt.Stringer
}

// Sections lists every experiment in output order; sw parameterizes
// the "faults" sweep.
func Sections(sw FaultSweep) []Section {
	return []Section{
		{"fig5a", func(s *System) fmt.Stringer { return RunFig5a(s) }},
		{"fig5b", func(s *System) fmt.Stringer { return RunFig5b(s) }},
		{"fig6", func(s *System) fmt.Stringer { return RunFig6(s) }},
		{"fig7", func(s *System) fmt.Stringer { return RunFig7(s) }},
		{"table2", func(s *System) fmt.Stringer { return RunTable2(s) }},
		{"fig8", func(s *System) fmt.Stringer { return RunFig8(s) }},
		{"table3", func(s *System) fmt.Stringer { return RunTable3(s) }},
		{"fig9", func(s *System) fmt.Stringer { return RunFig9(s) }},
		{"table4", func(s *System) fmt.Stringer { return RunTable4(s) }},
		{"fig10", func(s *System) fmt.Stringer { return RunFig10(s) }},
		{"fig11", func(s *System) fmt.Stringer { return RunFig11(s) }},
		{"baselines", func(s *System) fmt.Stringer { return RunBaselineComparison(s) }},
		{"significance", func(s *System) fmt.Stringer { return RunSignificance(s) }},
		{"crawl", func(s *System) fmt.Stringer { return RunCrawlRobustness(s) }},
		{"faults", func(s *System) fmt.Stringer { return RunFaultSweep(s, sw) }},
		{"agreement", func(s *System) fmt.Stringer { return RunNetworkAgreement(s) }},
		{"correlation", func(s *System) fmt.Stringer { return RunCorrelation(s) }},
	}
}
