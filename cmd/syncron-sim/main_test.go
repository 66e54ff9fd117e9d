package main

import (
	"strings"
	"testing"
)

func TestCoresPerUnit(t *testing.T) {
	for _, tc := range []struct {
		cores, units, want int
		ok                 bool
	}{
		{cores: 0, units: 4, want: 0, ok: true}, // default cores per unit
		{cores: 60, units: 4, want: 15, ok: true},
		{cores: 8, units: 1, want: 8, ok: true},
		{cores: 4, units: 4, want: 1, ok: true},
		{cores: 3, units: 4},  // fewer cores than units
		{cores: 10, units: 4}, // not a multiple
		{cores: -8, units: 4}, // negative
	} {
		got, err := coresPerUnit(tc.cores, tc.units)
		if tc.ok {
			if err != nil || got != tc.want {
				t.Errorf("coresPerUnit(%d, %d) = %d, %v; want %d, nil", tc.cores, tc.units, got, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "-cores") {
			t.Errorf("coresPerUnit(%d, %d) = %d, %v; want an error naming -cores", tc.cores, tc.units, got, err)
		}
	}
}
