package obs

import (
	"math"
	"testing"
)

func TestFormatBound(t *testing.T) {
	if got := formatBound(math.Inf(1)); got != "+Inf" {
		t.Fatalf("formatBound(+Inf) = %q", got)
	}
	if got := formatBound(0.25); got != "0.25" {
		t.Fatalf("formatBound(0.25) = %q", got)
	}
}
