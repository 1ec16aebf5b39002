package obs

import (
	"strings"
	"testing"
)

func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	v := 1.5
	reg.GaugeFunc("test_dynamic", "Sampled at scrape time.", func() float64 { return v })
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "test_dynamic 1.5") {
		t.Fatalf("exposition missing dynamic value:\n%s", sb.String())
	}
	v = 2.5
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "test_dynamic 2.5") {
		t.Fatal("GaugeFunc must re-evaluate at every exposition")
	}
}

func TestGaugeFuncKindConflict(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_conflict", "")
	defer func() {
		if recover() == nil {
			t.Fatal("GaugeFunc over a counter name must panic")
		}
	}()
	reg.GaugeFunc("test_conflict", "", func() float64 { return 0 })
}

func TestRuntimeMetrics(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"fta_build_info{",
		"fta_uptime_seconds ",
		"fta_goroutines ",
		"fta_heap_bytes ",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("exposition missing %q:\n%s", name, out)
		}
	}
	if !strings.Contains(out, `go_version="go`) {
		t.Error("build info missing go_version label")
	}
	if !strings.Contains(out, `version="`) {
		t.Error("build info missing version label")
	}
	// Goroutines and heap must read as positive at scrape time.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "fta_goroutines ") || strings.HasPrefix(line, "fta_heap_bytes ") {
			if strings.HasSuffix(line, " 0") {
				t.Errorf("runtime sample unexpectedly zero: %s", line)
			}
		}
	}
}
