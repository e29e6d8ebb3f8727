// Package libtest is test support: its exports need no non-test
// reference.
package libtest

import "fixture/internal/lib"

// Helper is imported by a non-test file, which is reported there.
func Helper() { lib.SupportOnly() }

// Fixture is used by tests alone, as test support is.
func Fixture() *lib.Mem { return lib.NewMem() }
