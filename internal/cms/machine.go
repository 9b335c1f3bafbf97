package cms

import (
	"container/list"
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vliw"
)

// Params are the CMS runtime cost knobs. Defaults follow the behaviour
// described for CMS 4.x: interpretation costs tens of cycles per x86
// instruction, translation costs thousands (amortized by the translation
// cache), and chained translated code dispatches in a couple of cycles.
type Params struct {
	// HotThreshold is the execution count at which a region is translated
	// ("filters infrequently executed code from being needlessly
	// optimized").
	HotThreshold int
	// InterpOverhead is the decode/dispatch cost per interpreted x86
	// instruction, added to the native latency of the operation itself.
	InterpOverhead int
	// TranslateCostPerInstr is the one-time translation cost per x86
	// instruction in a region.
	TranslateCostPerInstr int
	// DispatchCycles is the cost of entering the translation cache from
	// the CMS runtime (hash lookup, context restore).
	DispatchCycles int
	// ChainedDispatchCycles is the cost when a translation exits directly
	// into another cached translation (translation chaining).
	ChainedDispatchCycles int
	// CacheCapacityAtoms bounds the translation cache size, measured in
	// atoms (a proxy for the cache's memory footprint). 0 = unlimited.
	CacheCapacityAtoms int
}

// DefaultParams returns the CMS 4.x-like defaults.
func DefaultParams() Params {
	return Params{
		HotThreshold:          24,
		InterpOverhead:        18,
		TranslateCostPerInstr: 3000,
		DispatchCycles:        40,
		ChainedDispatchCycles: 1,
		CacheCapacityAtoms:    1 << 16,
	}
}

// Stats reports where cycles went during a run.
type Stats struct {
	// Runs counts Run invocations on this machine; WarmRuns counts those
	// that began with a non-empty translation cache (warm starts). A
	// fresh machine per kernel — the paper's cold-cache semantics —
	// therefore shows Runs == 1, WarmRuns == 0.
	Runs     uint64
	WarmRuns uint64

	InterpInstrs      uint64 // x86 instructions interpreted
	InterpCycles      uint64
	Translations      uint64 // regions translated
	TranslatedInstrs  uint64 // x86 instructions covered by translations
	TranslateCycles   uint64
	NativeExecutions  uint64 // translation executions
	NativeCycles      uint64 // cycles inside translated code
	NativeAtoms       uint64
	NativeMolecules   uint64
	DispatchCycles    uint64
	ChainedDispatches uint64
	ColdDispatches    uint64
	CacheEvictions    uint64
	CacheAtoms        int // current cache occupancy

	// Chaining accounting.
	ChainPatches uint64 // exit→successor links patched in
	ChainHits    uint64 // native-to-native hops through a chain
	ChainMisses  uint64 // native exits with no cached successor
	Unchains     uint64 // links severed by eviction
}

// TotalCycles sums every cycle category.
func (s Stats) TotalCycles() uint64 {
	return s.InterpCycles + s.TranslateCycles + s.NativeCycles + s.DispatchCycles
}

// PackingDensity returns atoms per molecule executed — the ILP the
// translator extracted. Zero before any native execution.
func (s Stats) PackingDensity() float64 {
	if s.NativeMolecules == 0 {
		return 0
	}
	return float64(s.NativeAtoms) / float64(s.NativeMolecules)
}

// chainLink is a patched translation exit: executions leaving this entry
// at pc continue directly in to's translation.
type chainLink struct {
	pc int
	to *cacheEntry
}

type cacheEntry struct {
	tr  *vliw.Translation
	ele *list.Element // position in LRU list; value is the entry PC
	// links are this entry's patched exits; preds are the entries holding
	// a link to this one, so eviction can sever incoming links without a
	// cache sweep. Translations have a handful of exits at most, so both
	// stay short and are scanned linearly.
	links []chainLink
	preds []*cacheEntry
}

// chainTo returns the patched successor for an exit at pc, or nil.
func (e *cacheEntry) chainTo(pc int) *cacheEntry {
	for i := range e.links {
		if e.links[i].pc == pc {
			return e.links[i].to
		}
	}
	return nil
}

// Machine is a full Crusoe model: CMS running over the VLIW engine.
type Machine struct {
	P     Params
	Trans *Translator
	VLIW  *vliw.Machine
	// Tracer, when non-nil, records the interpret→translate→cache
	// pipeline as trace events in the CMS cycle domain (obs.PidCMS, one
	// cycle per microsecond tick): a span per Run, a span per region
	// translation, an instant per cache eviction.
	Tracer *obs.Tracer

	cache   map[int]*cacheEntry
	lru     *list.List
	profile map[int]int
	stats   Stats
	// vst is the reused VLIW register state, re-armed per Run so the hot
	// path allocates nothing.
	vst vliw.State
}

// NewMachine builds a Crusoe with the given CMS parameters and VLIW
// timing.
func NewMachine(p Params, timing vliw.Timing) *Machine {
	return &Machine{
		P:       p,
		Trans:   NewTranslator(),
		VLIW:    vliw.NewMachine(timing),
		cache:   map[int]*cacheEntry{},
		lru:     list.New(),
		profile: map[int]int{},
	}
}

// Stats returns a copy of the run statistics.
func (m *Machine) Stats() Stats { return m.stats }

// Reset clears the translation cache, profiles and statistics (a "CMS
// reboot"); translations do not survive across Reset.
func (m *Machine) Reset() {
	m.cache = map[int]*cacheEntry{}
	m.lru = list.New()
	m.profile = map[int]int{}
	m.stats = Stats{}
}

// ErrFuel is returned when the cycle budget is exhausted.
var ErrFuel = errors.New("cms: cycle budget exhausted")

// Run executes the program on the simulated Crusoe until the x86 program
// halts, returning total cycles consumed (per the CMS + VLIW cost model)
// and the dynamic x86-level trace. fuelCycles of 0 means unlimited.
//
// The control loop mirrors the paper's description: CMS interprets cold
// code one instruction at a time while counting executions of region
// heads; when a head crosses the hot threshold its region is translated
// into molecules and cached; cached regions execute natively and chain to
// each other — runNative follows patched exit links from translation to
// translation without coming back here.
func (m *Machine) Run(p isa.Program, st *isa.State, fuelCycles uint64) (uint64, isa.Trace, error) {
	var tr isa.Trace
	if err := p.Validate(); err != nil {
		return 0, tr, err
	}
	m.stats.Runs++
	if len(m.cache) > 0 {
		m.stats.WarmRuns++
	}
	if m.Tracer != nil {
		defer func(start uint64, run uint64) {
			m.Tracer.Complete(obs.PidCMS, 0, "cms", "run",
				float64(start), float64(m.stats.TotalCycles()-start),
				map[string]any{"run": run, "interp_instrs": m.stats.InterpInstrs,
					"translations": m.stats.Translations})
		}(m.stats.TotalCycles(), m.stats.Runs)
	}
	m.vst = vliw.State{Arch: st}
	vst := &m.vst
	fromNative := false
	for !st.Halted {
		if fuelCycles > 0 && m.stats.TotalCycles() >= fuelCycles {
			return m.stats.TotalCycles(), tr, ErrFuel
		}
		pc := st.PC
		if pc < 0 || pc >= len(p) {
			return m.stats.TotalCycles(), tr, fmt.Errorf("cms: PC %d out of range", pc)
		}
		if ent := m.lookup(pc); ent != nil {
			if fromNative {
				m.stats.DispatchCycles += uint64(m.P.ChainedDispatchCycles)
				m.stats.ChainedDispatches++
			} else {
				m.stats.DispatchCycles += uint64(m.P.DispatchCycles)
				m.stats.ColdDispatches++
			}
			next, err := m.runNative(p, ent, vst, &tr, fuelCycles)
			if err != nil {
				return m.stats.TotalCycles(), tr, err
			}
			st.PC = next
			fromNative = true
			continue
		}
		// Cold region: profile the head and maybe translate.
		m.profile[pc]++
		if m.profile[pc] >= m.P.HotThreshold {
			if err := m.translate(p, pc); err != nil {
				return m.stats.TotalCycles(), tr, err
			}
			fromNative = false
			continue // next iteration dispatches into the new translation
		}
		// Interpret one region's worth: instruction by instruction until a
		// control transfer lands on a new region head.
		fromNative = false
		if err := m.interpretRegion(p, st, &tr); err != nil {
			return m.stats.TotalCycles(), tr, err
		}
	}
	return m.stats.TotalCycles(), tr, nil
}

// runNative executes ent and then follows chain links native-to-native
// until the program halts, fuel runs out, or an exit has no cached
// successor. It returns the x86 PC to continue at. Each hop charges
// exactly the chained dispatch the old dispatch-loop path charged, and
// touches the successor's LRU position, so cycle accounting and eviction
// order are bit-identical to pre-chaining behaviour.
func (m *Machine) runNative(p isa.Program, ent *cacheEntry, vst *vliw.State, tr *isa.Trace, fuelCycles uint64) (int, error) {
	for {
		res, err := m.VLIW.Execute(ent.tr, vst)
		if err != nil {
			return 0, err
		}
		m.recordNative(&res, tr)
		if res.Halted {
			return res.ExitPC, nil
		}
		exit := res.ExitPC
		if exit < 0 || exit >= len(p) {
			return exit, nil // Run reports the bounds error
		}
		if fuelCycles > 0 && m.stats.TotalCycles() >= fuelCycles {
			return exit, nil // Run returns ErrFuel
		}
		succ := ent.chainTo(exit)
		if succ == nil {
			c := m.cache[exit]
			if c == nil {
				m.stats.ChainMisses++
				return exit, nil
			}
			m.patch(ent, exit, c)
			succ = c
		}
		m.stats.ChainHits++
		m.stats.ChainedDispatches++
		m.stats.DispatchCycles += uint64(m.P.ChainedDispatchCycles)
		m.lru.MoveToFront(succ.ele)
		ent = succ
	}
}

func (m *Machine) lookup(pc int) *cacheEntry {
	ent := m.cache[pc]
	if ent != nil {
		m.lru.MoveToFront(ent.ele)
	}
	return ent
}

// patch links from's exit at exitPC directly to to's translation.
func (m *Machine) patch(from *cacheEntry, exitPC int, to *cacheEntry) {
	from.links = append(from.links, chainLink{pc: exitPC, to: to})
	to.preds = append(to.preds, from)
	m.stats.ChainPatches++
}

// unchain severs every link into and out of victim, so an evicted
// translation can never be reached from native code again.
func (m *Machine) unchain(victim *cacheEntry) {
	for _, pred := range victim.preds {
		kept := pred.links[:0]
		for _, l := range pred.links {
			if l.to == victim {
				m.stats.Unchains++
				continue
			}
			kept = append(kept, l)
		}
		pred.links = kept
	}
	for _, l := range victim.links {
		if l.to == victim {
			continue // self-link: back-pointer already dropped above
		}
		kept := l.to.preds[:0]
		for _, q := range l.to.preds {
			if q != victim {
				kept = append(kept, q)
			}
		}
		l.to.preds = kept
	}
	victim.links = nil
	victim.preds = nil
}

func (m *Machine) translate(p isa.Program, pc int) error {
	start := m.stats.TotalCycles()
	t, err := m.Trans.Translate(p, pc)
	if err != nil {
		return err
	}
	cost := t.SrcInstrs * m.P.TranslateCostPerInstr
	m.stats.Translations++
	m.stats.TranslatedInstrs += uint64(t.SrcInstrs)
	m.stats.TranslateCycles += uint64(cost)
	if m.Tracer != nil {
		m.Tracer.Complete(obs.PidCMS, 0, "cms", "translate",
			float64(start), float64(cost),
			map[string]any{"pc": pc, "instrs": t.SrcInstrs, "atoms": t.Atoms()})
	}
	m.insert(pc, t)
	return nil
}

func (m *Machine) insert(pc int, t *vliw.Translation) {
	atoms := t.Atoms()
	if m.P.CacheCapacityAtoms > 0 {
		for m.stats.CacheAtoms+atoms > m.P.CacheCapacityAtoms && m.lru.Len() > 0 {
			oldest := m.lru.Back()
			victimPC := oldest.Value.(int)
			victim := m.cache[victimPC]
			m.unchain(victim)
			m.stats.CacheAtoms -= victim.tr.Atoms()
			delete(m.cache, victimPC)
			m.lru.Remove(oldest)
			m.stats.CacheEvictions++
			if m.Tracer != nil {
				m.Tracer.Instant(obs.PidCMS, 0, "cms", "evict",
					float64(m.stats.TotalCycles()),
					map[string]any{"pc": victimPC, "atoms": victim.tr.Atoms()})
			}
		}
	}
	ele := m.lru.PushFront(pc)
	m.cache[pc] = &cacheEntry{tr: t, ele: ele}
	m.stats.CacheAtoms += atoms
}

func (m *Machine) recordNative(res *vliw.ExecResult, tr *isa.Trace) {
	m.stats.NativeExecutions++
	m.stats.NativeCycles += res.Cycles
	m.stats.NativeAtoms += res.Atoms
	m.stats.NativeMolecules += res.Molecules
	for c, n := range res.ByClass {
		tr.ByClass[c] += n
	}
	tr.Flops += res.Flops
	tr.Instrs += res.Atoms
	if res.Taken {
		tr.Taken++
	}
}

// interpretRegion steps x86 instructions, charging interpreter cost per
// instruction, until a control transfer executes (whose successor is the
// next region head) or the program halts.
func (m *Machine) interpretRegion(p isa.Program, st *isa.State, tr *isa.Trace) error {
	for !st.Halted {
		in := p[st.PC]
		if err := isa.Step(p, st, tr); err != nil {
			return err
		}
		m.stats.InterpInstrs++
		m.stats.InterpCycles += uint64(m.P.InterpOverhead) + uint64(m.interpLatency(in.Op))
		if isa.IsBranch(in.Op) {
			return nil
		}
	}
	return nil
}

// interpLatency is the native execution latency of the interpreted op
// (the interpreter still has to do the work, e.g. an fdiv costs what the
// FPU costs).
func (m *Machine) interpLatency(op isa.Op) int {
	t := m.VLIW.T
	switch isa.ClassOf(op) {
	case isa.ClassIntMul:
		return t.MulLatency
	case isa.ClassLoad:
		return t.LoadLatency
	case isa.ClassFPAdd, isa.ClassFPMul:
		return t.FPLatency
	case isa.ClassFPDiv:
		return t.FDivLatency
	case isa.ClassFPSqrt:
		return t.FSqrtLatency
	default:
		return t.IntLatency
	}
}
