package lib_test

import (
	"testing"

	"fixture/internal/lib"
	"fixture/internal/lib/libtest"
)

// A reference from a test does not keep an export alive.
func TestDead(t *testing.T) {
	lib.Dead()
	_ = libtest.Fixture().Total() + lib.Unused
}
