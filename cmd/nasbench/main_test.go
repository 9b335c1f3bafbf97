package main

import (
	"reflect"
	"strings"
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

// TestCheckFlags: a flag the chosen mode never reads is an error
// naming it; the flags each mode reads pass.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		sweep bool
		ranks string
		set   []string
		bad   string
	}{
		{sweep: true, set: []string{"class", "ranks", "fabric", "ep-only"}},
		{sweep: true, set: []string{"kernel"}, bad: "-kernel"},
		{sweep: true, set: []string{"rate"}, bad: "-rate"},
		{ranks: "1024", set: []string{"kernel", "class", "ranks", "fabric"}},
		{ranks: "8", set: []string{"ranks", "rate"}, bad: "-rate"},
		{ranks: "8", set: []string{"ranks", "ep-only"}, bad: "-ep-only"},
		{set: []string{"kernel", "class", "rate"}},
		{set: []string{"ep-only"}, bad: "-ep-only"},
		{set: []string{"fabric"}, bad: "-fabric"},
	} {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		err := checkFlags(tc.sweep, tc.ranks, set)
		if tc.bad == "" {
			if err != nil {
				t.Errorf("sweep=%v ranks=%q %v: %v", tc.sweep, tc.ranks, tc.set, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.bad+" ") {
			t.Errorf("sweep=%v ranks=%q %v: err = %v, want one naming %s", tc.sweep, tc.ranks, tc.set, err, tc.bad)
		}
	}
}
