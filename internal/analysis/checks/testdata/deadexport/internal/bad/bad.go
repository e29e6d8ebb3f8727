package bad

import "fixture/internal/lib/libtest" // want `non-test file imports test-support package fixture/internal/lib/libtest`

func use() { libtest.Helper() }
