package shard

import (
	"math"
	"testing"
)

// TestResolveCrossPoolFrac pins the cross-pool defaults and refusals.
func TestResolveCrossPoolFrac(t *testing.T) {
	for _, tc := range []struct {
		shards  int
		frac    float64
		want    float64
		wantErr bool
	}{
		{2, 0, DefaultCrossPoolFrac, false},
		{2, -0.5, DefaultCrossPoolFrac, false},
		{2, 0.4, 0.4, false},
		{1, 0.4, 0, false},
		{2, 1, 0, true},
		{2, 1.5, 0, true},
		{2, math.NaN(), 0, true},
		{2, math.Inf(1), 0, true},
		{2, math.Inf(-1), 0, true},
		{1, math.NaN(), 0, true},
	} {
		got, err := ResolveCrossPoolFrac(tc.shards, tc.frac)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("ResolveCrossPoolFrac(%d, %v) = %v, %v; want %v, error %v", tc.shards, tc.frac, got, err, tc.want, tc.wantErr)
		}
	}
}
