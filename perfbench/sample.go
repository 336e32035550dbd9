package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks (the "type 7" estimator, as
// numpy's default). xs need not be sorted; it is not modified. The
// quantile of an empty sample is NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly greater than the q-quantile: the
// evidence a tail percentile rests on.
func beyond(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// latency summarizes per-op wall times: the median, the p90, the sample
// count, and whether the p90 is backed by at least minTail samples.
type latency struct {
	N        int
	P50, P90 float64
	Tail     int // samples beyond the p90
}

func summarize(xs []float64) latency {
	return latency{N: len(xs), P50: median(xs), P90: quantile(xs, 0.9), Tail: beyond(xs, 0.9)}
}

// P90Backed reports whether the p90 has minTail samples beyond it.
func (l latency) P90Backed() bool { return l.Tail >= minTail }

// tally is the failure accounting of one run: every op attempted, and
// every op that failed with the first few reasons kept for the report.
// A failed op is a non-zero exit, a failed or quarantined file, a
// non-2xx response, a job that did not end done, or an output-check
// mismatch; one op counts once however many of those it hit.
type tally struct {
	Attempted int
	Failed    int
	Reasons   []string
}

// maxReasons bounds the reasons a tally keeps; the count stays exact.
const maxReasons = 20

// op records one attempted op; a non-empty problem list fails it.
func (t *tally) op(problems ...string) {
	t.Attempted++
	if len(problems) == 0 {
		return
	}
	t.Failed++
	for _, p := range problems {
		if len(t.Reasons) < maxReasons {
			t.Reasons = append(t.Reasons, p)
		}
	}
}

// errorRate is failed over attempted ops (0 when nothing was attempted).
func (t *tally) errorRate() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

func (t *tally) String() string {
	return fmt.Sprintf("%d of %d ops failed", t.Failed, t.Attempted)
}
