// Package hot is the hotpathclock fixture: one annotated root, gated
// and ungated clock reads and formatter calls, guard-aware reachability,
// and the noalloc variant.
package hot

import (
	"fmt"
	"strconv"
	"time"
)

// Config mirrors the engine's one observability switch: mentioning
// DisableObs in a condition makes it a gate. Any other Disable* field is
// an ordinary bool.
type Config struct {
	DisableObs   bool
	DisableAudit bool
}

// Metrics stands in for the engine's histogram bundle.
type Metrics struct{ rounds int64 }

type Engine struct {
	cfg  Config
	mx   *Metrics //flowmotif:obsgate
	on   bool     //flowmotif:obsgate
	last string
	seen int
}

// Ingest is the fixture's hot-path root: with all observability
// disabled it must perform zero clock reads and zero formatting.
//
//flowmotif:hotpath
func (e *Engine) Ingest(events []int) {
	t0 := time.Now() // want `clock read time.Now in hot path`
	_ = t0
	e.last = strconv.Itoa(len(events)) // want `allocating call strconv.Itoa in hot path`
	if !e.cfg.DisableAudit {
		_ = time.Now() // want `clock read time.Now in hot path`
	}

	// NEGATIVE CASES: everything below is dominated by a recognized
	// observability gate and must NOT be reported.
	if e.mx != nil {
		e.mx.rounds++
		_ = time.Now()
	}
	if e.on {
		e.last = fmt.Sprintf("%d", len(events))
	}
	if !e.cfg.DisableObs {
		e.observe(len(events))
	}

	e.step(len(events))
	e.gatedTail(len(events))
}

// step is reachable from the root over an unguarded edge: it inherits
// the hot-path budget.
func (e *Engine) step(n int) {
	e.seen += n
	_ = time.Since(time.Time{}) // want `clock read time.Since in hot path`
}

// observe is reached ONLY under the DisableObs gate: the guarded call
// edge keeps it off the obs-off hot path, so its clock read is fine.
func (e *Engine) observe(n int) {
	e.last = fmt.Sprint(n, time.Now().UnixNano())
}

// gatedTail demonstrates early-return gating: past the `mx == nil`
// bailout the remainder runs only with metrics armed.
func (e *Engine) gatedTail(n int) {
	if e.mx == nil {
		return
	}
	e.mx.rounds += int64(n)
	_ = time.Now()
}

// Advance is a noalloc root: allocating syntax itself is flagged.
//
//flowmotif:hotpath noalloc
func (e *Engine) Advance() {
	buf := make([]int, 8) // want `make allocates in noalloc hot path`
	e.seen += len(buf)
}
