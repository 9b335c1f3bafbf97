// Command nasbench runs the NAS Parallel Benchmark kernels, verifies
// them, and rates them on the paper's four processors.
//
// Usage:
//
//	nasbench                    # all kernels, class S
//	nasbench -class W           # the paper's Table 3 size
//	nasbench -kernel EP -class W
//	nasbench -class W -obs-json nas.json
//	nasbench -sweep             # parallel EP/IS rank sweep, p=1..24
//	nasbench -sweep -ranks 8    # sweep p=1..8
//	nasbench -sweep -ranks 64,256,1024 -ep-only  # large-p list sweep
//	nasbench -sweep -procs 1    # same sweep, one world at a time
//	nasbench -ranks 1024 -fabric torus2d         # one distributed run
//
// The -sweep mode runs the distributed EP and IS kernels at every rank
// count on the simulated cluster. -ranks takes either a single count N
// (sweeping p=1..N) or a comma-separated list of exact counts
// ("64,256,1024,4096"). Without -sweep, a -ranks value runs the
// distributed kernels once at that single world size. The sweep's
// worlds are independent, so they execute concurrently on the host
// pool, -procs wide; -procs 1 runs them one at a time, with
// bit-identical rows either way. -native selects the native collective
// algorithms and -contention the per-port fabric occupancy model (both
// change simulated times and are off by default). -fabric picks the
// interconnect topology (star, fattree, torus2d, torus3d): shaped
// fabrics use topology-aware hop counts and hierarchical collectives.
// Each simulated rank is a goroutine with its own inbox, so worlds of
// thousands of ranks stay cheap on the host.
//
// The flags are a thin parse layer over core.NASKernelsSpec and
// core.NASSweepSpec — the same experiment specs the gridd gateway
// accepts as JSON.
package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// parseRanks turns a -ranks value into the sweep's rank list: a single
// count N means 1..N, a comma-separated list means exactly those.
func parseRanks(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) == 1 {
		n, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("bad -ranks value %q: %v", s, err)
		}
		if n <= 0 {
			return nil, nil
		}
		out := make([]int, n)
		for i := range out {
			out[i] = i + 1
		}
		return out, nil
	}
	var out []int
	for _, part := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -ranks entry %q in %q", part, s)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	d := core.NewDriver("nasbench")
	kernel := flag.String("kernel", "", "run one kernel (BT, SP, LU, MG, EP, IS, CG); empty = all")
	class := flag.String("class", "S", "problem class (S, W, A)")
	rate := flag.Bool("rate", true, "rate on the Table 3 processors")
	sweep := flag.Bool("sweep", false, "run the parallel EP/IS rank sweep instead of the serial kernel table")
	ranks := flag.String("ranks", "", "sweep rank counts: N for 1..N (default 24 with -sweep), or an exact comma-separated list; without -sweep, one distributed run at this world size")
	native := flag.Bool("native", false, "sweep with native collectives (recursive doubling, pipelined ring)")
	contention := flag.Bool("contention", false, "sweep with the per-port fabric occupancy model")
	fabric := flag.String("fabric", "", "interconnect topology: star (default), fattree, torus2d, torus3d")
	epOnly := flag.Bool("ep-only", false, "sweep EP only (large-p sweeps: IS holds O(p²) live slices)")
	flag.Parse()
	d.Check(d.Setup())

	var spec core.ExperimentSpec
	if *sweep {
		if *ranks == "" {
			*ranks = "24"
		}
		list, err := parseRanks(*ranks)
		d.Check(err)
		spec = &core.NASSweepSpec{
			Class:          *class,
			Ranks:          list,
			Native:         *native,
			Contention:     *contention,
			EPOnly:         *epOnly,
			FabricModeSpec: core.FabricModeSpec{Fabric: *fabric},
		}
	} else {
		s := &core.NASKernelsSpec{
			Class: *class, Kernel: *kernel, Rate: rate,
			FabricModeSpec: core.FabricModeSpec{Fabric: *fabric},
		}
		if *ranks != "" {
			n, err := strconv.Atoi(*ranks)
			if err != nil {
				d.Check(fmt.Errorf("without -sweep, -ranks takes a single world size, got %q", *ranks))
			}
			s.Ranks = n
		}
		spec = s
	}
	_, err := d.RunSpec(spec)
	d.Check(err)
	d.Check(d.Finish())
}
