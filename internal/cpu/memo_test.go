package cpu

import (
	"sync"
	"testing"
)

// calibCounters reads the memo's process-wide hit and miss counts.
func calibCounters() (hits, misses uint64) {
	return calibHits.Value(), calibMisses.Value()
}

// TestCalibrateForMemoized asserts the second calibration of the same
// (processor, miss rate) pair hits the process-wide cache and returns
// the identical cost table.
func TestCalibrateForMemoized(t *testing.T) {
	ResetCalibCache()
	p := PentiumIII500().AsProcessor()
	first, err := CalibrateFor(p, 0.0123)
	if err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := calibCounters()
	if hits0 != 0 || misses0 != 1 {
		t.Fatalf("after first call: hits=%d misses=%d, want 0/1", hits0, misses0)
	}
	second, err := CalibrateFor(p, 0.0123)
	if err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := calibCounters()
	if hits1 != 1 || misses1 != 1 {
		t.Fatalf("after second call: hits=%d misses=%d, want 1/1", hits1, misses1)
	}
	if first != second {
		t.Fatalf("memoized costs differ: %+v vs %+v", first, second)
	}
	// A different miss rate is a different cache line.
	if _, err := CalibrateFor(p, 0.0456); err != nil {
		t.Fatal(err)
	}
	if _, misses := calibCounters(); misses != 2 {
		t.Fatalf("different miss rate should miss; misses=%d, want 2", misses)
	}
	ResetCalibCache()
}

// TestCalibrateForConcurrent hammers the memo from concurrent goroutines
// (run under -race in CI): the calibration must run exactly once and
// every caller must observe the same result.
func TestCalibrateForConcurrent(t *testing.T) {
	ResetCalibCache()
	p := AthlonMP1200().AsProcessor()
	const goroutines = 16
	results := make([]EffCosts, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = CalibrateFor(p, 0.0789)
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("goroutine %d observed different costs", i)
		}
	}
	hits, misses := calibCounters()
	if misses != 1 {
		t.Fatalf("concurrent hammer ran calibration %d times, want 1", misses)
	}
	if hits != goroutines-1 {
		t.Fatalf("hits=%d, want %d", hits, goroutines-1)
	}
	ResetCalibCache()
}

// TestCalibrateForUncachedBypassesMemo asserts the ablation bypass never
// touches the cache.
func TestCalibrateForUncachedBypassesMemo(t *testing.T) {
	ResetCalibCache()
	p := PentiumIII500().AsProcessor()
	if _, err := CalibrateForUncached(p, 0.0111); err != nil {
		t.Fatal(err)
	}
	if hits, misses := calibCounters(); hits != 0 || misses != 0 {
		t.Fatalf("bypass touched the memo: hits=%d misses=%d", hits, misses)
	}
}

// TestCalibrateForFillsCrusoeRatesTogether: the first CalibrateFor of a
// Crusoe runs one calibration that fills every workload miss rate's
// entry, so the other rates hit; a rate outside them misses once more.
func TestCalibrateForFillsCrusoeRatesTogether(t *testing.T) {
	ResetCalibCache()
	defer ResetCalibCache()
	p := NewTM5800()
	for i, mr := range []float64{MissRateTree, MissRateClassW, MissRateSmall, MissRateTree} {
		if _, err := CalibrateFor(p, mr); err != nil {
			t.Fatal(err)
		}
		if hits, misses := calibCounters(); hits != uint64(i) || misses != 1 {
			t.Fatalf("after call %d (rate %v): hits=%d misses=%d, want %d/1", i+1, mr, hits, misses, i)
		}
	}
	if _, err := CalibrateFor(p, 0.0123); err != nil {
		t.Fatal(err)
	}
	if hits, misses := calibCounters(); hits != 3 || misses != 2 {
		t.Fatalf("after a fifth rate: hits=%d misses=%d, want 3/2", hits, misses)
	}
}

// TestCalibrateForCrusoeConcurrentRates calls CalibrateFor for one
// Crusoe at the three workload miss rates from concurrent goroutines
// (run under -race in CI): one calibration runs, and every caller gets
// its rate's bits from an unmemoized calibration at the three rates
// (which TestPricedKernelRunsMatchSeparateRuns holds to separate runs).
func TestCalibrateForCrusoeConcurrentRates(t *testing.T) {
	ResetCalibCache()
	defer ResetCalibCache()
	const perRate = 4
	n := perRate * len(workloadRates)
	results := make([]EffCosts, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			results[i], errs[i] = CalibrateFor(NewTM5600(), workloadRates[i%len(workloadRates)])
		}()
	}
	wg.Wait()
	if hits, misses := calibCounters(); misses != 1 || hits != uint64(n-1) {
		t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, n-1)
	}
	want, _, err := calibrateKernels(calibrationModels(NewTM5600(), workloadRates...)...)
	if err != nil {
		t.Fatal(err)
	}
	for j, mr := range workloadRates {
		for i := j; i < n; i += len(workloadRates) {
			if errs[i] != nil {
				t.Fatalf("goroutine %d: %v", i, errs[i])
			}
			if !sameCosts(results[i], want[j]) {
				t.Fatalf("goroutine %d at rate %v: %+v, want %+v", i, mr, results[i], want[j])
			}
		}
	}
}
