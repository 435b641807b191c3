package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestParseProfileFindsBusyFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for i, stack := range p.stacks {
		total += p.counts[i]
		for _, f := range stack {
			if strings.HasSuffix(f, ".spin") {
				inSpin += p.counts[i]
				break
			}
		}
	}
	if total == 0 || inSpin*2 < total {
		t.Fatalf("%d of %d samples in spin, want most", inSpin, total)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{solverPkg + "(*luFactor).btran", solverPkg + "(*rxScratch).dualIterate", solverPkg + "(*Model).SolveWithOptions", planPkg + "SolveExact"}, "lu"},
		{[]string{solverPkg + "(*rxScratch).priceCol", solverPkg + "(*Model).SolveWithOptions"}, "pricing"},
		{[]string{solverPkg + "(*presolved).reduceRow", solverPkg + "(*Model).presolve", solverPkg + "(*Model).SolveWithOptions"}, "presolve"},
		{[]string{solverPkg + "(*bbSearch).worker", solverPkg + "(*Model).SolveWithOptions", planPkg + "SolveExact"}, "solver"},
		{[]string{solverPkg + "(*Model).AddConstraint", planPkg + "SolveExact"}, "plan.build"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", solverPkg + "(*luFactor).factorize"}, "gc"},
		{[]string{"main.main"}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
}
