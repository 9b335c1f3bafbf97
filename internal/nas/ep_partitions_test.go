package nas

import (
	"fmt"
	"testing"

	"repro/internal/hostcpu"
)

// TestEPPartitionsMatchEPCompute checks the one-pass fold against a
// separate epCompute of every rank's range, bit for bit, under both
// dispatches: the paper's sweep ranks, every p = 1..24, odd counts,
// duplicates and an unsorted list, over the class S stream (2^16 pairs
// under -race). The reference for each range is computed once and
// shared by the sets that contain it.
func TestEPPartitionsMatchEPCompute(t *testing.T) {
	total := uint64(1) << 24
	if raceEnabled {
		total = 1 << 16
	}
	var upTo24 []int
	for p := 1; p <= 24; p++ {
		upTo24 = append(upTo24, p)
	}
	sets := [][]int{{1, 2, 4, 8, 16, 24}, upTo24, {3, 5, 7}, {4, 4}, {24, 1, 8}}
	if !raceEnabled {
		outs, err := EPPartitions(ClassS, sets[0])
		if err != nil {
			t.Fatal(err)
		}
		if want := epPartitions(epSeed, total, sets[0]); fmt.Sprint(outs) != fmt.Sprint(want) {
			t.Errorf("EPPartitions(ClassS) differs from the %d-pair stream's partitions", total)
		}
	}
	for _, lanes := range []bool{true, false} {
		if lanes && !hostcpu.HasAVX2() {
			continue
		}
		withEPLanes(lanes, func() {
			ref := map[epRange]epPin{}
			for _, ranks := range sets {
				outs := epPartitions(epSeed, total, ranks)
				checkPartitions(t, fmt.Sprintf("lanes=%v ranks %v", lanes, ranks), total, ranks, outs, ref)
			}
		})
	}
}

// checkPartitions compares each rank's output with epCompute of its
// range, memoized in ref.
func checkPartitions(t *testing.T, name string, total uint64, ranks []int, outs [][]EPOut, ref map[epRange]epPin) {
	t.Helper()
	if len(outs) != len(ranks) {
		t.Fatalf("%s: %d partitions, want %d", name, len(outs), len(ranks))
	}
	for j, p := range ranks {
		if len(outs[j]) != p {
			t.Fatalf("%s: partition %d has %d ranks, want %d", name, j, len(outs[j]), p)
		}
		for r, out := range outs[j] {
			rg := epRankRange(total, p, r)
			want, ok := ref[rg]
			if !ok {
				want = pinOf("", rg.first, rg.end-rg.first, epCompute(epSeed, rg.first, rg.end-rg.first))
				ref[rg] = want
			}
			if got := pinOf("", rg.first, rg.end-rg.first, out); got != want {
				t.Errorf("%s: p=%d rank %d [%d, %d): one pass %+v, epCompute %+v", name, p, r, rg.first, rg.end, got, want)
			}
		}
	}
}

// TestEPPartitionsEdges covers what the class streams do not: more
// ranks than pairs (the empty ranks fold to a zero EPOut), ranges with
// gaps between them and an empty range on a cut, and the rejected
// inputs.
func TestEPPartitionsEdges(t *testing.T) {
	const total = 5
	ranks := []int{8, 3, 1, 5}
	outs := epPartitions(epSeed, total, ranks)
	checkPartitions(t, "5 pairs", total, ranks, outs, map[epRange]epPin{})
	empty := 0
	for r, out := range outs[0] {
		if rg := epRankRange(total, 8, r); rg.first == rg.end {
			empty++
			if out != (EPOut{}) {
				t.Errorf("empty rank %d of 8: %+v, want zero", r, out)
			}
		}
	}
	if empty != 3 {
		t.Errorf("%d empty ranks of 8 over %d pairs, want 3", empty, total)
	}

	// Ranges apart, overlapping and empty, each equal to its own pass.
	ranges := []epRange{{300, 301}, {100, 164}, {5, 5}, {120, 300}, {164, 164}, {1000, 1070}}
	for k, out := range epRanges(epSeed, ranges) {
		rg := ranges[k]
		want := pinOf("", rg.first, rg.end-rg.first, epCompute(epSeed, rg.first, rg.end-rg.first))
		if got := pinOf("", rg.first, rg.end-rg.first, out); got != want {
			t.Errorf("range [%d, %d): %+v, alone %+v", rg.first, rg.end, got, want)
		}
	}
	if len(epRanges(epSeed, nil)) != 0 {
		t.Error("no ranges gave outputs")
	}

	for _, bad := range []struct {
		class Class
		ranks []int
	}{{ClassS, nil}, {ClassS, []int{}}, {ClassS, []int{4, 0}}, {ClassS, []int{-1}}, {Class('Z'), []int{1}}} {
		if outs, err := EPPartitions(bad.class, bad.ranks); err == nil {
			t.Errorf("EPPartitions(%c, %v) = %d partitions, want an error", bad.class, bad.ranks, len(outs))
		}
	}
}
