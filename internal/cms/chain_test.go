package cms

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/vliw"
)

// checkChainInvariants walks the machine's translation cache and fails
// if any chain link dangles: every link must point at a currently cached
// entry, and the link's target must know about the source in its preds
// list (so a later eviction of the target can sever the link).
func checkChainInvariants(t *testing.T, m *Machine) {
	t.Helper()
	cached := map[*cacheEntry]bool{}
	for _, e := range m.cache {
		cached[e] = true
	}
	for pc, e := range m.cache {
		for _, l := range e.links {
			if !cached[l.to] {
				t.Fatalf("entry %d links to an evicted translation (exit pc %d)", pc, l.pc)
			}
			if l.to == e {
				continue // self-links need no preds bookkeeping
			}
			found := false
			for _, p := range l.to.preds {
				if p == e {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("entry %d links to %d, but %d's preds do not record it", pc, l.pc, l.pc)
			}
		}
		for _, p := range e.preds {
			if !cached[p] {
				t.Fatalf("entry %d has an evicted predecessor", pc)
			}
		}
	}
}

// twoRegionLoopSrc is a loop whose body splits into two regions (the
// conditional ends region A; region B spans the tail and jumps back), so
// steady state exercises chaining between distinct translations.
const twoRegionLoopSrc = `
	movi r1, 0
	movi r2, 0
loop:
	addi r1, r1, 1
	cmpi r1, 200
	jz   done
	addi r2, r2, 2
	jmp  loop
done:
	hlt
`

func TestChainingPatchesAndHits(t *testing.T) {
	p := isa.MustAssemble(twoRegionLoopSrc)
	m := newTestMachine(1)
	st := isa.NewState(0)
	if _, _, err := m.Run(p, st, 0); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.ChainPatches == 0 {
		t.Fatalf("no exits were patched: %+v", s)
	}
	if s.ChainHits == 0 {
		t.Fatalf("no native-to-native hops: %+v", s)
	}
	// Each chained hop charges dispatch exactly like the pre-chaining
	// lookup did, so the chained-dispatch counter must cover the hits.
	if s.ChainHits > s.ChainedDispatches {
		t.Fatalf("chain hits (%d) exceed chained dispatches (%d)", s.ChainHits, s.ChainedDispatches)
	}
	checkChainInvariants(t, m)
}

func TestEvictionUnchains(t *testing.T) {
	// Two hot loops in sequence: phase 1 chains its regions together,
	// then phase 2's translations overflow the cache and evict phase 1's
	// linked entries — each eviction must sever the links into the
	// victim so no chained hop can reach freed code.
	src := `
		movi r1, 0
	loop1:
		addi r1, r1, 1
		cmpi r1, 100
		jz   mid
		addi r2, r2, 2
		jmp  loop1
	mid:
		movi r3, 0
	loop2:
		addi r3, r3, 1
		cmpi r3, 100
		jz   done
		addi r4, r4, 2
		jmp  loop2
	done:
		hlt
	`
	p := isa.MustAssemble(src)
	params := DefaultParams()
	params.HotThreshold = 1
	params.CacheCapacityAtoms = 12 // holds one loop's regions, not both
	m := NewMachine(params, vliw.TM5600Timing())
	st := isa.NewState(0)
	if _, _, err := m.Run(p, st, 0); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.CacheEvictions == 0 {
		t.Fatalf("undersized cache never evicted: %+v", s)
	}
	if s.Unchains == 0 {
		t.Fatalf("evicting chained translations severed no links (%d patches, %d evictions): %+v",
			s.ChainPatches, s.CacheEvictions, s)
	}
	checkChainInvariants(t, m)
	if st.R[2] != 99*2 || st.R[4] != 99*2 {
		t.Fatalf("r2 = %d, r4 = %d, want %d each", st.R[2], st.R[4], 99*2)
	}
}

// TestWarmReuseDeterministicUnderEviction is the eviction × chaining ×
// warm-reuse interaction test: repeated runs on one machine (a warm
// translation cache) with a cache small enough to evict continuously
// must stay architecturally identical and settle into a deterministic
// per-run cycle cost.
func TestWarmReuseDeterministicUnderEviction(t *testing.T) {
	// The subtest keeps the name it had when a tiered pipeline ran
	// beside the single translation gear.
	t.Run("single-gear", func(t *testing.T) {
		p := isa.MustAssemble(twoRegionLoopSrc)
		ref := isa.NewState(0)
		if err := isa.Run(p, ref, nil, 10_000_000); err != nil {
			t.Fatal(err)
		}
		params := DefaultParams()
		params.HotThreshold = 1
		params.CacheCapacityAtoms = 12
		m := NewMachine(params, vliw.TM5600Timing())
		var costs []uint64
		for run := 0; run < 5; run++ {
			st := isa.NewState(0)
			before := m.Stats().TotalCycles()
			if _, _, err := m.Run(p, st, 0); err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
			if !ref.Equal(st) {
				t.Fatalf("run %d diverged: ref R=%v, got R=%v", run, ref.R, st.R)
			}
			costs = append(costs, m.Stats().TotalCycles()-before)
			checkChainInvariants(t, m)
		}
		if m.Stats().CacheEvictions == 0 {
			t.Fatalf("eviction pressure never materialised: %+v", m.Stats())
		}
		// Warm runs repeat the same translate/evict/chain sequence, so
		// their cycle costs must be identical run over run.
		for i := 2; i < len(costs); i++ {
			if costs[i] != costs[1] {
				t.Fatalf("warm run costs diverged: %v", costs)
			}
		}
	})
}

// TestUnchainLeavesSelfLoops covers a translation chained to itself (a
// tight loop region): evicting it must not corrupt the preds of other
// entries or double-free its own links.
func TestUnchainLeavesSelfLoops(t *testing.T) {
	p := isa.MustAssemble(sumLoopSrc)
	params := DefaultParams()
	params.HotThreshold = 1
	m := NewMachine(params, vliw.TM5600Timing())
	st := isa.NewState(0)
	if _, _, err := m.Run(p, st, 0); err != nil {
		t.Fatal(err)
	}
	// Find an entry that links to itself (the loop back-edge).
	var self *cacheEntry
	for _, e := range m.cache {
		for _, l := range e.links {
			if l.to == e {
				self = e
			}
		}
	}
	if self == nil {
		t.Skip("loop did not self-chain under this region split")
	}
	m.unchain(self)
	if self.links != nil || self.preds != nil {
		t.Fatalf("unchain left link state behind: links=%v preds=%v", self.links, self.preds)
	}
	checkChainInvariants(t, m)
}
