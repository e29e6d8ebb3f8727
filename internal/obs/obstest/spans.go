package obstest

import (
	"fmt"

	"flowmotif/internal/obs"
)

// ValidateSpans checks a (stitched) trace's structural integrity: one
// trace ID throughout, exactly one root, every parent link resolving to
// a span in the set, and monotone timestamps (span end >= start, child
// start >= parent start). This is the CI span-tree integrity check.
func ValidateSpans(spans []obs.SpanRecord) error {
	if len(spans) == 0 {
		return fmt.Errorf("obstest: empty span set")
	}
	byID := make(map[string]obs.SpanRecord, len(spans))
	trace := spans[0].Trace
	roots := 0
	for _, rec := range spans {
		if rec.Trace != trace {
			return fmt.Errorf("obstest: span %s(%s) belongs to trace %s, want %s", rec.Name, rec.Span, rec.Trace, trace)
		}
		if rec.End < rec.Start {
			return fmt.Errorf("obstest: span %s(%s) ends before it starts", rec.Name, rec.Span)
		}
		if _, dup := byID[rec.Span]; dup {
			return fmt.Errorf("obstest: duplicate span ID %s", rec.Span)
		}
		byID[rec.Span] = rec
		if rec.Parent == "" {
			roots++
		}
	}
	if roots != 1 {
		return fmt.Errorf("obstest: %d root spans, want exactly 1", roots)
	}
	for _, rec := range spans {
		if rec.Parent == "" {
			continue
		}
		p, ok := byID[rec.Parent]
		if !ok {
			return fmt.Errorf("obstest: span %s(%s) has orphan parent %s", rec.Name, rec.Span, rec.Parent)
		}
		if rec.Start < p.Start {
			return fmt.Errorf("obstest: span %s(%s) starts before its parent %s", rec.Name, rec.Span, p.Name)
		}
	}
	return nil
}
