package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// processCPU is the user plus system CPU time the process has used. CPU
// steal on a shared host stretches wall time but is not charged here.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB is the live heap after a full collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// tracer is the traced run's recorder. It keeps spans that the
// benchmark's own code opens around each call into a layer, and a CPU
// profile bucketed by function. Tracing is switched on and off between
// operations so that one process measures its own overhead: traced and
// untraced operations alternate, and the overhead is the difference of
// their median latencies. A nil *tracer records nothing.
type tracer struct {
	mu      sync.Mutex
	start   time.Time
	spans   []span
	on      bool
	profBuf bytes.Buffer
	cpu     cpuBuckets
}

// span is one timed call into a layer; parent is the index of the
// enclosing span, or -1.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

func newTracer(enabled bool) *tracer {
	if !enabled {
		return nil
	}
	return &tracer{start: time.Now()}
}

// setOn switches the CPU profile and span recording. Turning the profile
// off folds its samples into the buckets.
func (t *tracer) setOn(on bool) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if on == t.on {
		return nil
	}
	t.on = on
	if on {
		t.profBuf.Reset()
		return pprof.StartCPUProfile(&t.profBuf)
	}
	pprof.StopCPUProfile()
	prof, err := parseProfile(t.profBuf.Bytes())
	if err != nil {
		return fmt.Errorf("reading CPU profile: %w", err)
	}
	t.cpu.add(prof)
	return nil
}

// tracing reports whether operations starting now are traced.
func (t *tracer) tracing() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

// begin opens a span and returns its index (-1 when not recording).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes the span returned by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.start)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// finish stops any running profile and prints one line per span name:
// count, total time, and self time (duration minus the time covered by
// its child spans).
func (t *tracer) finish() error {
	if t == nil {
		return nil
	}
	if err := t.setOn(false); err != nil {
		return err
	}
	type agg struct {
		n           int
		total, self time.Duration
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	byName := map[string]*agg{}
	var names []string
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		a := byName[s.name]
		if a == nil {
			a = &agg{}
			byName[s.name] = a
			names = append(names, s.name)
		}
		a.n++
		a.total += s.end - s.start
		a.self += s.end - s.start - child[i]
	}
	sort.Strings(names)
	for _, n := range names {
		a := byName[n]
		fmt.Printf("# span %-28s n=%-6d total_ms=%-12.3f self_ms=%.3f\n", n, a.n, msOf(a.total), msOf(a.self))
	}
	fmt.Printf("# cpu samples=%d\n", t.cpu.total)
	return nil
}

// overhead is the traced-minus-untraced difference of median latencies.
func overhead(traced, untraced []float64) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return median(traced) - median(untraced)
}
