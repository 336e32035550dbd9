package main

import (
	"fmt"
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, unsorted
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.9, 9.1}, {0.25, 3.25},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("quantile sorted its input in place")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of odd sample = %v, want 2", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
}

func TestP90NeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		tail   int
		backed bool
	}{{100, 10, true}, {92, 10, true}, {91, 9, false}, {20, 2, false}} {
		l := summarize(seq(c.n))
		if l.N != c.n || l.Tail != c.tail || l.P90Backed() != c.backed {
			t.Errorf("n=%d: got N=%d tail=%d backed=%v, want tail=%d backed=%v", c.n, l.N, l.Tail, l.P90Backed(), c.tail, c.backed)
		}
	}
	// Ties at the p90 value do not count as beyond it.
	if l := summarize([]float64{1, 1, 1, 1, 1}); l.Tail != 0 || l.P50 != 1 || l.P90 != 1 {
		t.Errorf("constant sample: %+v", l)
	}
}

func TestTallyCountsEachOpOnce(t *testing.T) {
	var tl tally
	tl.op()
	tl.op("exit 1", "output differs")
	tl.op()
	tl.op("job failed")
	if tl.Attempted != 4 || tl.Failed != 2 {
		t.Fatalf("attempted=%d failed=%d, want 4 and 2", tl.Attempted, tl.Failed)
	}
	if !near(tl.errorRate(), 0.5) {
		t.Errorf("error rate %v, want 0.5", tl.errorRate())
	}
	if len(tl.Reasons) != 3 {
		t.Errorf("reasons %q, want all three problems", tl.Reasons)
	}
	if got := tl.String(); got != "2 of 4 ops failed" {
		t.Errorf("String() = %q", got)
	}
	var empty tally
	if empty.errorRate() != 0 {
		t.Error("error rate of no ops is not 0")
	}
}

func TestTallyBoundsReasonsNotCounts(t *testing.T) {
	var tl tally
	for i := 0; i < 3*maxReasons; i++ {
		tl.op(fmt.Sprintf("problem %d", i))
	}
	if tl.Failed != 3*maxReasons || len(tl.Reasons) != maxReasons {
		t.Errorf("failed=%d reasons=%d, want %d and %d", tl.Failed, len(tl.Reasons), 3*maxReasons, maxReasons)
	}
}
