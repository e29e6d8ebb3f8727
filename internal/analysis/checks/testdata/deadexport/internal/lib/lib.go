package lib

func Live() {}

func Dead() {} // want `exported lib.Dead has no non-test reference`

// BenchOnly is referenced only by the bench/ module, which counts.
func BenchOnly() {}

type Public struct{}

// Extra has no reference, but Public is aliased by the root package.
func (Public) Extra() {}

type Sink interface{ Emit(int) }

type Mem struct{ n int }

func NewMem() *Mem { return &Mem{} }

// Emit is called only through Sink.
func (m *Mem) Emit(v int) { m.n += v }

func (m *Mem) Total() int { return m.n } // want `exported lib.Mem.Total has no non-test reference`

const Unused = 1 // want `exported lib.Unused has no non-test reference`

// A reference from a test-support package does not count either.
func SupportOnly() {} // want `exported lib.SupportOnly has no non-test reference`
