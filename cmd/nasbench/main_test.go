package main

import (
	"reflect"
	"testing"
)

func TestParseRanks(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
		bad  bool
	}{
		{in: "3", want: []int{1, 2, 3}},
		{in: " 1 ", want: []int{1}},
		{in: "64,256, 1024", want: []int{64, 256, 1024}},
		{in: "24,1,8", want: []int{24, 1, 8}},
		{in: "0", bad: true},
		{in: "-3", bad: true},
		{in: "0,3", bad: true},
		{in: "3,-1", bad: true},
		{in: "", bad: true},
		{in: "x", bad: true},
		{in: "4,,8", bad: true},
		{in: "2.5", bad: true},
	} {
		got, err := parseRanks(tc.in)
		if tc.bad {
			if err == nil {
				t.Errorf("parseRanks(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseRanks(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}
