package cpu

import "math"

// classSched tracks functional-unit occupancy for one timing class.
//
// Pipelined units (RecipThroughput ≤ 1) accept a fixed number of issues
// per clock cycle; tracking per-cycle issue counts lets a younger
// instruction that becomes ready early claim a cycle an older (but
// later-issuing) instruction left idle — which a greedy "next-free time
// per unit" model cannot express. Blocking units (dividers, square-root
// units; RecipThroughput > 1) keep the per-unit next-free model, which is
// accurate for them because their use is serialized by data dependences
// in practice.
type classSched struct {
	blocking bool
	rt       float64
	// Pipelined: the live bins (cycles with issues booked that pruning
	// has not dropped) in ascending cycle order.
	bins       []bookedBin
	perCycle   int
	minLiveBin int64
	// Blocking: next-free time per unit instance.
	pool []float64
}

// bookedBin is one cycle's issue count.
type bookedBin struct {
	cycle  int64
	issues int
}

// Once more than maxLiveBins bins are live, acquire drops every bin
// older than pruneDepth cycles before the one it just booked (or before
// minLiveBin, if that is later). Bins that old are almost never booked
// again; a dropped bin booked again reads as empty.
const (
	maxLiveBins = 8192
	pruneDepth  = 4096
)

func newClassSched(u *UnitSpec) *classSched {
	if u.RecipThroughput > 1 {
		return &classSched{
			blocking: true,
			rt:       u.RecipThroughput,
			pool:     make([]float64, u.Count),
		}
	}
	per := int(math.Round(float64(u.Count) / u.RecipThroughput))
	if per < 1 {
		per = 1
	}
	return &classSched{
		rt: u.RecipThroughput,
		// Room for every bin live before a prune, so booking does not
		// allocate as a run grows.
		bins:     make([]bookedBin, 0, maxLiveBins+1),
		perCycle: per,
	}
}

// acquire books the unit at the earliest time ≥ t and returns the issue
// time.
func (c *classSched) acquire(t float64) float64 {
	if !c.blocking {
		bin := int64(math.Floor(t))
		at := t
		i := c.search(bin)
		for ; i < len(c.bins) && c.bins[i].cycle == bin && c.bins[i].issues >= c.perCycle; i++ {
			bin++
			at = float64(bin)
		}
		if i < len(c.bins) && c.bins[i].cycle == bin {
			c.bins[i].issues++
		} else {
			c.bins = append(c.bins, bookedBin{})
			copy(c.bins[i+1:], c.bins[i:])
			c.bins[i] = bookedBin{cycle: bin, issues: 1}
		}
		if len(c.bins) > maxLiveBins {
			c.prune(bin)
		}
		if bin > c.minLiveBin {
			// Track a loose lower bound of useful bins for pruning.
			c.minLiveBin = bin - pruneDepth
		}
		return at
	}
	// Blocking unit: prefer a unit already idle at t (latest such), else
	// wait for the earliest-free one.
	bestIdle, bestBusy := -1, 0
	for i := range c.pool {
		if c.pool[i] <= t {
			if bestIdle < 0 || c.pool[i] > c.pool[bestIdle] {
				bestIdle = i
			}
		}
		if c.pool[i] < c.pool[bestBusy] {
			bestBusy = i
		}
	}
	at := t
	unit := bestIdle
	if unit < 0 {
		unit = bestBusy
		at = c.pool[unit]
	}
	c.pool[unit] = at + c.rt
	return at
}

// search returns the index of the first live bin at or after cycle.
// Bookings cluster at the newest bins, so it steps back over a few of
// those before bisecting the rest.
func (c *classSched) search(cycle int64) int {
	hi := len(c.bins)
	for stop := max(hi-8, 0); hi > stop; hi-- {
		if c.bins[hi-1].cycle < cycle {
			return hi
		}
	}
	lo := 0
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.bins[mid].cycle < cycle {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// prune drops every bin before max(minLiveBin, current−pruneDepth).
func (c *classSched) prune(current int64) {
	k := c.search(max(c.minLiveBin, current-pruneDepth))
	c.bins = c.bins[:copy(c.bins, c.bins[k:])]
}
