package telemetry

import (
	"math"
	"testing"
)

func TestHistZeroObservations(t *testing.T) {
	var h Hist
	if h.Count != 0 || h.Sum != 0 {
		t.Fatalf("zero hist has Count=%d Sum=%d", h.Count, h.Sum)
	}
	for i, b := range h.Buckets {
		if b != 0 {
			t.Errorf("bucket %d of empty hist = %d", i, b)
		}
	}
}

func TestHistMaxBucketOverflow(t *testing.T) {
	var h Hist
	// The last bucket's lower bound is 2^(HistBuckets-2); anything at or
	// above lands there rather than growing the array.
	huge := []int{
		BucketLo(HistBuckets - 1),
		BucketLo(HistBuckets-1) * 2,
		math.MaxInt32,
	}
	for _, v := range huge {
		h.Observe(v)
	}
	if got := h.Buckets[HistBuckets-1]; got != uint64(len(huge)) {
		t.Errorf("last bucket holds %d samples, want %d", got, len(huge))
	}
	wantSum := uint64(0)
	for _, v := range huge {
		wantSum += uint64(v)
	}
	if h.Sum != wantSum || h.Count != uint64(len(huge)) {
		t.Errorf("Sum=%d Count=%d, want Sum=%d Count=%d", h.Sum, h.Count, wantSum, len(huge))
	}
}

func TestHistNegativeClampsToZero(t *testing.T) {
	var h Hist
	h.Observe(-5)
	if h.Buckets[0] != 1 || h.Sum != 0 || h.Count != 1 {
		t.Errorf("negative sample: buckets[0]=%d Sum=%d Count=%d, want 1/0/1",
			h.Buckets[0], h.Sum, h.Count)
	}
}

func TestHistBucketBoundaries(t *testing.T) {
	// Bucket 0 holds exactly 0; bucket i>0 holds [2^(i-1), 2^i).
	cases := []struct {
		v      int
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
	}
	for _, c := range cases {
		var h Hist
		h.Observe(c.v)
		if h.Buckets[c.bucket] != 1 {
			t.Errorf("Observe(%d) did not land in bucket %d: %v", c.v, c.bucket, h.Buckets)
		}
	}
	if BucketLo(0) != 0 || BucketLo(1) != 1 || BucketLo(4) != 8 {
		t.Errorf("BucketLo sequence wrong: %d %d %d", BucketLo(0), BucketLo(1), BucketLo(4))
	}
}
