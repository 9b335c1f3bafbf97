package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	if got := e.Run(); got != 0 {
		t.Fatalf("Run on empty engine = %v, want 0", got)
	}
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(1, func() { order = append(order, "a") })
	e.Schedule(1, func() { order = append(order, "b") })
	e.Schedule(1, func() { order = append(order, "c") })
	e.Run()
	if got := order[0] + order[1] + order[2]; got != "abc" {
		t.Fatalf("simultaneous events fired in order %q, want abc", got)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []Time
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(1, func() {
			times = append(times, e.Now())
		})
	})
	e.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times = %v, want [1 2]", times)
	}
}

func TestEngineZeroDelayFiresAtNow(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5, func() {
		e.Schedule(0, func() {
			if e.Now() != 5 {
				t.Errorf("zero-delay event at %v, want 5", e.Now())
			}
			fired = true
		})
	})
	e.Run()
	if !fired {
		t.Fatal("zero-delay event did not fire")
	}
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestEngineNaNDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NaN delay did not panic")
		}
	}()
	NewEngine().Schedule(math.NaN(), func() {})
}

func TestEngineScheduleAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleAt into the past did not panic")
			}
		}()
		e.ScheduleAt(5, func() {})
	})
	e.Run()
}

func TestEventCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() = false after Cancel")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired = %d, want 0", e.Fired())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, d := range []Time{1, 2, 3, 4, 5} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %d events by t=3, want 3", len(fired))
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %v, want clock advanced to 10", e.Now())
	}
}

func TestRunLimited(t *testing.T) {
	e := NewEngine()
	n := 0
	var reschedule func()
	reschedule = func() {
		n++
		e.Schedule(1, reschedule)
	}
	e.Schedule(1, reschedule)
	if err := e.RunLimited(100); err != ErrLimit {
		t.Fatalf("RunLimited on infinite chain = %v, want ErrLimit", err)
	}
	if n != 100 {
		t.Fatalf("fired %d events, want 100", n)
	}

	e2 := NewEngine()
	e2.Schedule(1, func() {})
	if err := e2.RunLimited(100); err != nil {
		t.Fatalf("RunLimited on finite queue = %v, want nil", err)
	}
}

func TestEngineRandomOrderProperty(t *testing.T) {
	// Property: regardless of scheduling order, events fire sorted by time.
	f := func(delays []float64) bool {
		e := NewEngine()
		var fired []float64
		for _, d := range delays {
			d := math.Abs(d)
			if math.IsNaN(d) || math.IsInf(d, 0) {
				continue
			}
			e.Schedule(d, func() { fired = append(fired, d) })
		}
		e.Run()
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d/10 values in 1000 draws", len(seen))
	}
}

func TestRNGIntnNonPositivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(5)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("Exp(5) sample mean = %v, want ≈5", mean)
	}
}

func TestRNGNormPairMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 100000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x, y := r.NormPair()
		sum += x + y
		sumsq += x*x + y*y
	}
	mean := sum / (2 * n)
	variance := sumsq / (2 * n)
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v, want ≈1", variance)
	}
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(float64(i), func() {})
	}
	e.Run()
	if e.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", e.Fired())
	}
}
