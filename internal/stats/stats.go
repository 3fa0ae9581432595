// Package stats provides the statistics the evaluation uses: medians (the
// paper reports median execution times over repeated runs), geometric means
// (SPEC overhead aggregation), overhead ratios, and the value-clustering
// analysis at the heart of AOCR's pointer identification (Section 4.2).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Median returns the median of xs. It panics on empty input; sweep code
// that can legitimately see an empty sample (partial-failure tolerance)
// should use MedianErr.
func Median(xs []float64) float64 {
	m, err := MedianErr(xs)
	if err != nil {
		panic(err.Error())
	}
	return m
}

// MedianErr is Median returning an error instead of panicking on empty
// input — the crash path a partially-failed sweep would otherwise hit when
// every run of one benchmark died.
func MedianErr(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: median of empty slice")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2], nil
	}
	return (s[n/2-1] + s[n/2]) / 2, nil
}

// MedianU64 returns the median of unsigned counts.
func MedianU64(xs []uint64) uint64 {
	if len(xs) == 0 {
		panic("stats: median of empty slice")
	}
	s := append([]uint64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// GeoMeanErr returns the geometric mean of xs, or an error on empty or
// non-positive input (a zero-cycle baseline or an empty ratio set) instead
// of crashing a whole sweep.
func GeoMeanErr(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("stats: geomean of empty slice")
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geomean of non-positive value %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// OverheadErr returns the relative overhead of measured vs baseline as a
// ratio (1.06 = +6%), or an error on a non-positive baseline (a zero-cycle
// or failed baseline run).
func OverheadErr(measured, baseline float64) (float64, error) {
	if baseline <= 0 {
		return 0, errors.New("stats: non-positive baseline")
	}
	return measured / baseline, nil
}

// Pct converts an overhead ratio to a percentage (1.066 → 6.6).
func Pct(ratio float64) float64 { return (ratio - 1) * 100 }

// Cluster is a group of nearby 64-bit values — the unit of AOCR's
// statistical pointer analysis. The paper observes that pointer values on
// x64 occur in clusters per memory region, with heap pointers "typically
// constituting the third largest cluster" (Section 4.2).
type Cluster struct {
	Lo, Hi uint64
	Count  int
	Values []uint64
}

// Contains reports whether v falls inside the cluster's range.
func (c *Cluster) Contains(v uint64) bool { return v >= c.Lo && v <= c.Hi }

// ClusterValues groups the values whose pairwise gaps are below maxGap into
// clusters, ordered by descending population. This reproduces the AOCR
// analysis: leaked stack words are grouped by value proximity, and each
// populous cluster corresponds to one mapped region (text, data, heap,
// stack). Zero and small integers are filtered by minValue.
func ClusterValues(values []uint64, maxGap uint64, minValue uint64) []*Cluster {
	var ptrs []uint64
	for _, v := range values {
		if v >= minValue {
			ptrs = append(ptrs, v)
		}
	}
	if len(ptrs) == 0 {
		return nil
	}
	sort.Slice(ptrs, func(i, j int) bool { return ptrs[i] < ptrs[j] })
	var out []*Cluster
	cur := &Cluster{Lo: ptrs[0], Hi: ptrs[0], Count: 1, Values: []uint64{ptrs[0]}}
	for _, v := range ptrs[1:] {
		if v-cur.Hi <= maxGap {
			cur.Hi = v
			cur.Count++
			cur.Values = append(cur.Values, v)
		} else {
			out = append(out, cur)
			cur = &Cluster{Lo: v, Hi: v, Count: 1, Values: []uint64{v}}
		}
	}
	out = append(out, cur)
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// BTRAGuessProbability is the analytic success probability of guessing n
// return addresses with R BTRAs per call site: (1/(R+1))^n (Section 7.2.1).
func BTRAGuessProbability(R, n int) float64 {
	return math.Pow(1/float64(R+1), float64(n))
}
