// Package fixture is the module's root package: it re-exports lib.Public
// by alias, which makes every method of Public public API.
package fixture

import "fixture/internal/lib"

type Public = lib.Public

func Use() {
	lib.Live()
	var s lib.Sink = lib.NewMem()
	s.Emit(1)
}
