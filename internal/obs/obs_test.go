package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"633-MHz Transmeta TM5600": "633_mhz_transmeta_tm5600",
		"Green Destiny":            "green_destiny",
		"already_clean.name":       "already_clean_name",
		"  spaces  ":               "spaces",
		"":                         "",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSnapshotSemantics(t *testing.T) {
	s := NewSnapshot()
	s.AddCounter("c", "", 3)
	s.AddCounter("c", "", 4)
	if got := s.Counter("c"); got != 7 {
		t.Fatalf("AddCounter accumulate: got %d", got)
	}
	s.SetCounter("c", "", 5)
	if got := s.Counter("c"); got != 5 {
		t.Fatalf("SetCounter overwrite: got %d", got)
	}
	s.MaxGauge("m", "s", 2)
	s.MaxGauge("m", "s", 1)
	sm, ok := s.Lookup("m")
	if !ok || sm.Float != 2 {
		t.Fatalf("MaxGauge kept %v", sm.Float)
	}
	s.AddTimer("t", 0.5)
	s.AddTimer("t", 0.25)
	sm, _ = s.Lookup("t")
	if sm.Float != 0.75 {
		t.Fatalf("AddTimer accumulate: got %v", sm.Float)
	}
}

func TestRegistryCollect(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reg.hits", "")
	c.Add(3)
	if r.Counter("reg.hits", "") != c {
		t.Fatal("Counter not idempotent per name")
	}
	s := NewSnapshot()
	s.Gather(r)
	s.Gather(r) // live cumulative: gathering twice must not double
	if got := s.Counter("reg.hits"); got != 3 {
		t.Fatalf("registry counter = %d", got)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Complete(PidHost, 0, "c", "n", 0, 1, nil)
	tr.Instant(PidHost, 0, "c", "n", 0, nil)
	sp := tr.Begin(PidHost, 0, "c", "n")
	sp.End(map[string]any{"k": 1})
	tr.NameProcess(PidHost, "x")
	if tr.Events() != 0 {
		t.Fatal("nil tracer recorded events")
	}
	if err := tr.WriteJSON(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Complete(PidHost, g, "t", "e", float64(i), 1, nil)
			}
		}(g)
	}
	wg.Wait()
	if tr.Events() != 8*500 {
		t.Fatalf("events = %d", tr.Events())
	}
}
