package main

import (
	"strings"
	"testing"
)

func TestValidateParallelism(t *testing.T) {
	cases := []struct {
		name    string
		grid    int
		wantErr string
	}{
		{"serial", 1, ""},
		{"GOMAXPROCS", 0, ""},
		{"negative grid", -1, "-grid-parallel must be ≥ 0"},
	}
	for _, tc := range cases {
		err := validateParallelism(tc.grid)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}
