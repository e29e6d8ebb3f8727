package checks

import (
	"testing"

	"flowmotif/internal/analysis/analysistest"
)

// Each fixture is a standalone module under testdata (the nested go.mod
// keeps it out of the repo's ./... build) loaded with the real loader,
// so the tests exercise exactly what `go run ./cmd/flowvet` runs in CI.
// The `// want "regexp"` comments follow the analysistest contract:
// every want must be matched by a diagnostic on its line and every
// diagnostic must be wanted — so the fixtures prove both that seeded
// violations fail the build AND that the guard idioms (disable-flag
// branches, nil checks, early returns) suppress reports.

func TestHotpathclock(t *testing.T) {
	analysistest.RunTest(t, "testdata/hotpathclock", Hotpathclock)
}

func TestNilrecv(t *testing.T) {
	analysistest.RunTest(t, "testdata/nilrecv", Nilrecv)
}

func TestMetricname(t *testing.T) {
	analysistest.RunTest(t, "testdata/metricname", Metricname)
}

func TestFailstop(t *testing.T) {
	analysistest.RunTest(t, "testdata/failstop", Failstop)
}

func TestLockhold(t *testing.T) {
	analysistest.RunTest(t, "testdata/lockhold", Lockhold)
}

func TestDeadexport(t *testing.T) {
	analysistest.RunTest(t, "testdata/deadexport", Deadexport)
}
