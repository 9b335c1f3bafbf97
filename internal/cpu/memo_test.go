package cpu

import (
	"sync"
	"testing"
)

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
	hits0, misses0 := CalibCacheCounters()
	if hits0 != 0 || misses0 != 1 {
		t.Fatalf("after first call: hits=%d misses=%d, want 0/1", hits0, misses0)
	}
	second, err := CalibrateFor(p, 0.0123)
	if err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := CalibCacheCounters()
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
	if _, misses := CalibCacheCounters(); misses != 2 {
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
	hits, misses := CalibCacheCounters()
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
	if hits, misses := CalibCacheCounters(); hits != 0 || misses != 0 {
		t.Fatalf("bypass touched the memo: hits=%d misses=%d", hits, misses)
	}
}
