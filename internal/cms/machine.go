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
	// exits[k] counts the executions that left tr at molecule k since
	// the entry was last folded.
	exits []uint64
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
	// native holds the counts folded from the entries' exits that the
	// running Run has not yet credited to its stats and trace.
	native vliw.Counts
	// priced holds the cycles of each further Timing the machine prices
	// its runs under. interp and taken count what those cycles are
	// priced from besides the entries' exits: interpreted instructions
	// per class, and taken native exits, since the last fold.
	priced []pricing
	interp [isa.NumClasses]uint64
	taken  uint64
}

// pricing is the cycles of every run so far under one further Timing.
type pricing struct {
	t              vliw.Timing
	interp, native uint64 // Stats.InterpCycles and NativeCycles under t
}

// NewMachine builds a Crusoe with the given CMS parameters and VLIW
// timing. Each Timing in also prices every run besides timing:
// StatsUnder(i) returns the Stats a machine built with also[i] as its
// timing holds after the same runs. Timing steers no CMS decision
// (profiles, translation, chaining and eviction count executions and
// atoms, never cycles), so every count a run makes is the same under
// each Timing, and only InterpCycles and NativeCycles are priced
// apart: from the interpreted instructions per class, each cached
// entry's exits, and the taken native exits.
func NewMachine(p Params, timing vliw.Timing, also ...vliw.Timing) *Machine {
	m := &Machine{
		P:       p,
		Trans:   NewTranslator(),
		VLIW:    vliw.NewMachine(timing),
		cache:   map[int]*cacheEntry{},
		lru:     list.New(),
		profile: map[int]int{},
	}
	for _, t := range also {
		m.priced = append(m.priced, pricing{t: t})
	}
	return m
}

// Stats returns a copy of the run statistics.
func (m *Machine) Stats() Stats { return m.stats }

// StatsUnder returns a copy of the run statistics priced under the
// machine's further Timing also[i] (see NewMachine).
func (m *Machine) StatsUnder(i int) Stats {
	s := m.stats
	s.InterpCycles, s.NativeCycles = m.priced[i].interp, m.priced[i].native
	return s
}

// Reset clears the translation cache, profiles and statistics (a "CMS
// reboot"); translations do not survive across Reset.
func (m *Machine) Reset() {
	m.cache = map[int]*cacheEntry{}
	m.lru = list.New()
	m.profile = map[int]int{}
	m.stats = Stats{}
	for i := range m.priced {
		m.priced[i].interp, m.priced[i].native = 0, 0
	}
}

// ErrFuel is returned when the cycle budget is exhausted.
var ErrFuel = errors.New("cms: cycle budget exhausted")

// ErrFuelPriced is returned by a fuel-limited Run on a machine that
// prices further Timings: the budget stops the run at a cycle count of
// the machine's own Timing, where a run under another would not stop.
var ErrFuelPriced = errors.New("cms: a fuel-limited run is priced only under its own Timing")

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
//
// As CMS translates a region once and runs it many times, a translation
// execution only counts its exit; the atoms, molecules, flops and class
// counts those exits come to, and the cycles they take under each
// further Timing, are folded once, however the run ends. A fuel-limited
// run on a machine with further Timings returns ErrFuelPriced.
func (m *Machine) Run(p isa.Program, st *isa.State, fuelCycles uint64) (uint64, isa.Trace, error) {
	var tr isa.Trace
	if err := p.Validate(); err != nil {
		return 0, tr, err
	}
	if fuelCycles > 0 && len(m.priced) > 0 {
		return 0, tr, ErrFuelPriced
	}
	m.stats.Runs++
	if len(m.cache) > 0 {
		m.stats.WarmRuns++
	}
	start := m.stats.TotalCycles()
	err := m.run(p, st, &tr, fuelCycles)
	m.fold(&tr)
	if m.Tracer != nil {
		m.Tracer.Complete(obs.PidCMS, 0, "cms", "run",
			float64(start), float64(m.stats.TotalCycles()-start),
			map[string]any{"run": m.stats.Runs, "interp_instrs": m.stats.InterpInstrs,
				"translations": m.stats.Translations})
	}
	return m.stats.TotalCycles(), tr, err
}

// run is Run's control loop.
func (m *Machine) run(p isa.Program, st *isa.State, tr *isa.Trace, fuelCycles uint64) error {
	m.vst = vliw.State{Arch: st}
	vst := &m.vst
	fromNative := false
	for !st.Halted {
		if fuelCycles > 0 && m.stats.TotalCycles() >= fuelCycles {
			return ErrFuel
		}
		pc := st.PC
		if pc < 0 || pc >= len(p) {
			return fmt.Errorf("cms: PC %d out of range", pc)
		}
		if ent := m.lookup(pc); ent != nil {
			if fromNative {
				m.stats.DispatchCycles += uint64(m.P.ChainedDispatchCycles)
				m.stats.ChainedDispatches++
			} else {
				m.stats.DispatchCycles += uint64(m.P.DispatchCycles)
				m.stats.ColdDispatches++
			}
			next, err := m.runNative(p, ent, vst, tr, fuelCycles)
			if err != nil {
				return err
			}
			st.PC = next
			fromNative = true
			continue
		}
		// Cold region: profile the head and maybe translate.
		m.profile[pc]++
		if m.profile[pc] >= m.P.HotThreshold {
			if err := m.translate(p, pc); err != nil {
				return err
			}
			fromNative = false
			continue // next iteration dispatches into the new translation
		}
		// Interpret one region's worth: instruction by instruction until a
		// control transfer lands on a new region head.
		fromNative = false
		if err := m.interpretRegion(p, st, tr); err != nil {
			return err
		}
	}
	return nil
}

// runNative executes ent and then follows chain links native-to-native
// until the program halts, fuel runs out, or an exit has no cached
// successor. It returns the x86 PC to continue at. Each hop charges
// exactly the chained dispatch the old dispatch-loop path charged, and
// touches the successor's LRU position, so cycle accounting and eviction
// order are bit-identical to pre-chaining behaviour. Each execution adds
// its cycles and taken branch at once, which the fuel check and the
// run's trace span read, and counts its exit molecule for the fold.
func (m *Machine) runNative(p isa.Program, ent *cacheEntry, vst *vliw.State, tr *isa.Trace, fuelCycles uint64) (int, error) {
	for {
		e, err := m.VLIW.Execute(ent.tr, vst)
		if err != nil {
			return 0, err
		}
		ent.exits[e.Mol]++
		m.stats.NativeExecutions++
		m.stats.NativeCycles += ent.tr.Cycles(e.Mol)
		if e.Taken {
			m.stats.NativeCycles += uint64(m.VLIW.T.BranchPenalty)
			m.taken++
			tr.Taken++
		}
		if e.Halted {
			return e.PC, nil
		}
		exit := e.PC
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

// foldEntry folds ent's exit counts into m.native, prices them under
// each further Timing and zeroes them.
func (m *Machine) foldEntry(ent *cacheEntry) {
	ent.tr.Fold(ent.exits, &m.native)
	for i := range m.priced {
		pr := &m.priced[i]
		pr.native += ent.tr.Price(&pr.t, ent.exits)
	}
	clear(ent.exits)
}

// fold credits the run's native executions: it folds every cached
// entry's exits into m.native, which already holds those of entries
// evicted during the run, and moves the sums into the stats and tr. It
// prices the run's interpreted instructions and taken native exits
// under each further Timing, as interpretRegion and runNative price
// them under the machine's own. Every term is an integer, so the order
// of the folds moves no value.
func (m *Machine) fold(tr *isa.Trace) {
	for _, ent := range m.cache {
		m.foldEntry(ent)
	}
	for i := range m.priced {
		pr := &m.priced[i]
		for c, n := range m.interp {
			pr.interp += n * (uint64(m.P.InterpOverhead) + uint64(pr.t.Latency(isa.Class(c))))
		}
		pr.native += m.taken * uint64(pr.t.BranchPenalty)
	}
	clear(m.interp[:])
	m.taken = 0
	n := &m.native
	m.stats.NativeAtoms += n.Atoms
	m.stats.NativeMolecules += n.Molecules
	tr.Instrs += n.Atoms
	tr.Flops += n.Flops
	for c := range n.ByClass {
		tr.ByClass[c] += n.ByClass[c]
	}
	*n = vliw.Counts{}
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
	// Timed once here, so executions only read the translation.
	if err := m.VLIW.Time(t); err != nil {
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
			m.foldEntry(victim)
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
	m.cache[pc] = &cacheEntry{tr: t, ele: ele, exits: make([]uint64, len(t.Molecules))}
	m.stats.CacheAtoms += atoms
}

// interpretRegion steps x86 instructions, charging interpreter cost per
// instruction, until a control transfer executes (whose successor is the
// next region head) or the program halts. Each instruction also costs its
// native latency: the interpreter still has to do the work, e.g. an fdiv
// costs what the FPU costs.
func (m *Machine) interpretRegion(p isa.Program, st *isa.State, tr *isa.Trace) error {
	for !st.Halted {
		pc := st.PC
		if err := isa.Step(p, st, tr); err != nil {
			return err
		}
		op := p[pc].Op
		c := isa.ClassOf(op)
		m.stats.InterpInstrs++
		m.stats.InterpCycles += uint64(m.P.InterpOverhead) + uint64(m.VLIW.T.Latency(c))
		m.interp[c]++
		if isa.IsBranch(op) {
			return nil
		}
	}
	return nil
}
