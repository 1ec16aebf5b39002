package obs

import (
	"runtime"
	"runtime/debug"
	"time"
)

// RegisterRuntimeMetrics registers process-level health metrics on the
// registry: build identity, uptime, goroutine count and heap size. Values
// are sampled at scrape time via GaugeFunc, so the registry always reports
// the current state without a background collector goroutine:
//
//	fta_build_info{version,go_version} 1
//	fta_uptime_seconds
//	fta_goroutines
//	fta_heap_bytes
//
// The version label is the module's VCS-derived version from the build info
// ("(devel)" or a pseudo-version for untagged builds).
func RegisterRuntimeMetrics(reg *Registry) {
	start := time.Now()
	version := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		version = bi.Main.Version
	}
	reg.Gauge("fta_build_info",
		"Build identity; the value is always 1, the identity is in the labels.",
		L("version", version), L("go_version", runtime.Version())).Set(1)
	reg.GaugeFunc("fta_uptime_seconds",
		"Seconds since the process registered its metrics.",
		func() float64 { return time.Since(start).Seconds() })
	reg.GaugeFunc("fta_goroutines",
		"Current number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("fta_heap_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
}
