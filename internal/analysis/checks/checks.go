package checks

import "flowmotif/internal/analysis/flowvet"

// All returns the full flowvet analyzer suite in the order diagnostics
// should be grouped.
func All() []*flowvet.Analyzer {
	return []*flowvet.Analyzer{
		Hotpathclock,
		Nilrecv,
		Metricname,
		Failstop,
		Lockhold,
		Deadexport,
	}
}
