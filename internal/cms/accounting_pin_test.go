package cms

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
	"repro/internal/vliw"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// accountingPin is one Run's outcome: its cycles, its error, the
// machine's cumulative Stats after it and the Trace it returned.
type accountingPin struct {
	Name   string
	Cycles uint64
	Err    string `json:",omitempty"`
	Stats  Stats
	Trace  isa.Trace
}

// twoLoopSrc runs two chained loops in sequence; under a 12-atom cache
// the second loop's translations evict the first's.
const twoLoopSrc = `
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

// faultLoopSrc sums memory words from address 0 up until its
// translated load runs off the end of memory.
const faultLoopSrc = `
	movi r2, 0
loop:
	fld  f1, [r2]
	fadd f0, f0, f1
	addi r2, r2, 1
	jmp  loop
`

// spinSrc loops until the fuel runs out.
const spinSrc = `
	movi r2, 3
spin:
	addi r1, r1, 1
	mul  r3, r1, r2
	cvtif f1, r3
	fadd f0, f0, f1
	jmp  spin
`

// TestRunAccountingPinned pins, bit for bit, the cycles, every Stats
// field and the Trace of runs that end in each way a Run can: a halt
// with translations evicted mid-run (and then again warm), the fuel
// running out, a translated load faulting, and a warm run on a machine
// that keeps every translation. Each run's native atoms, molecules,
// flops and class counts are summed however the machine accounts for
// them; a diff of testdata/run_accounting_pin.json shows one that went
// missing or was counted twice.
func TestRunAccountingPinned(t *testing.T) {
	var got []accountingPin
	record := func(name string, m *Machine, p isa.Program, st *isa.State, fuel uint64) {
		cycles, tr, err := m.Run(p, st, fuel)
		pin := accountingPin{Name: name, Cycles: cycles, Stats: m.Stats(), Trace: tr}
		if err != nil {
			pin.Err = err.Error()
		}
		got = append(got, pin)
	}

	evicting := DefaultParams()
	evicting.HotThreshold = 1
	evicting.CacheCapacityAtoms = 12
	m := NewMachine(evicting, vliw.TM5600Timing())
	twoLoop := isa.MustAssemble(twoLoopSrc)
	record("two-loop evicting", m, twoLoop, isa.NewState(0), 0)
	record("two-loop evicting, warm", m, twoLoop, isa.NewState(0), 0)

	record("spin out of fuel", newTestMachine(1), isa.MustAssemble(spinSrc), isa.NewState(0), 50_000)

	record("translated load fault", newTestMachine(2), isa.MustAssemble(faultLoopSrc), isa.NewState(32), 0)

	m = newTestMachine(4)
	chained := isa.MustAssemble(twoRegionLoopSrc)
	record("two-region loop", m, chained, isa.NewState(0), 0)
	record("two-region loop, warm", m, chained, isa.NewState(0), 0)

	for _, pin := range got[:2] {
		if pin.Stats.CacheEvictions == 0 {
			t.Fatalf("%s: no translation was evicted", pin.Name)
		}
	}
	for i, want := range []string{"spin out of fuel", "translated load fault"} {
		if pin := got[2+i]; pin.Err == "" || pin.Stats.NativeExecutions == 0 {
			t.Fatalf("%s: err %q after %d native executions, want an error after some", want, pin.Err, pin.Stats.NativeExecutions)
		}
	}

	b, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	path := filepath.Join("testdata", "run_accounting_pin.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/cms -run TestRunAccountingPinned -update-golden to create)", err)
	}
	if string(b) != string(want) {
		t.Fatalf("run accounting pin mismatch:\n--- got ---\n%s\n--- want ---\n%s", b, want)
	}
}
