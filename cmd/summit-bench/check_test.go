package main

import (
	"bufio"
	"strings"
	"testing"
)

func doc(benchmarks ...result) *document {
	return &document{Benchmarks: benchmarks}
}

func TestCompareWithinTolerance(t *testing.T) {
	old := doc(result{Name: "BenchmarkRunAll", NsPerOp: 1000, AllocsPerOp: 10})
	fresh := doc(result{Name: "BenchmarkRunAll", NsPerOp: 1250, AllocsPerOp: 10})
	_, failed := compareDoc(old, fresh)
	if len(failed) != 0 {
		t.Fatalf("+25%% ns/op flagged as regression: %v", failed)
	}
}

func TestCompareNsRegression(t *testing.T) {
	old := doc(result{Name: "BenchmarkRunAll", NsPerOp: 1000})
	fresh := doc(result{Name: "BenchmarkRunAll", NsPerOp: 1400})
	_, failed := compareDoc(old, fresh)
	if len(failed) != 1 {
		t.Fatalf("+40%% ns/op not flagged: %v", failed)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	old := doc(result{Name: "BenchmarkTrainStepAlloc", NsPerOp: 100, AllocsPerOp: 4})
	fresh := doc(result{Name: "BenchmarkTrainStepAlloc", NsPerOp: 100, AllocsPerOp: 9})
	_, failed := compareDoc(old, fresh)
	if len(failed) != 1 {
		t.Fatalf("alloc doubling not flagged: %v", failed)
	}
}

func TestCompareZeroAllocsStayZero(t *testing.T) {
	old := doc(result{Name: "BenchmarkMDForces", NsPerOp: 100, AllocsPerOp: 0})
	fresh := doc(result{Name: "BenchmarkMDForces", NsPerOp: 100, AllocsPerOp: 0})
	if _, failed := compareDoc(old, fresh); len(failed) != 0 {
		t.Fatalf("0 -> 0 allocs flagged: %v", failed)
	}
	// A formerly allocation-free loop that starts allocating regresses.
	fresh = doc(result{Name: "BenchmarkMDForces", NsPerOp: 100, AllocsPerOp: 2})
	if _, failed := compareDoc(old, fresh); len(failed) != 1 {
		t.Fatalf("0 -> 2 allocs not flagged: %v", failed)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	old := doc(result{Name: "BenchmarkRunAll", NsPerOp: 1000},
		result{Name: "BenchmarkGone", NsPerOp: 500})
	fresh := doc(result{Name: "BenchmarkRunAll", NsPerOp: 1000},
		result{Name: "BenchmarkNew", NsPerOp: 1})
	lines, failed := compareDoc(old, fresh)
	if len(failed) != 1 || failed[0] != "BenchmarkGone" {
		t.Fatalf("missing baseline benchmark not flagged: %v", failed)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "new benchmark") || !strings.Contains(joined, "MISSING") {
		t.Fatalf("report lines incomplete:\n%s", joined)
	}
}

func TestSpeedupRatio(t *testing.T) {
	// 2x speedup clears the 1.5x floor; the -8 GOMAXPROCS suffix must not
	// hide the pair.
	fresh := doc(result{Name: "BenchmarkRunAllSequential-8", NsPerOp: 2000},
		result{Name: "BenchmarkRunAllParallel-8", NsPerOp: 1000})
	if line, ok := checkSpeedupRatio(fresh); !ok {
		t.Fatalf("2x speedup failed the floor: %s", line)
	}
	// 1.2x is below the floor.
	fresh = doc(result{Name: "BenchmarkRunAllSequential", NsPerOp: 1200},
		result{Name: "BenchmarkRunAllParallel", NsPerOp: 1000})
	if line, ok := checkSpeedupRatio(fresh); ok {
		t.Fatalf("1.2x speedup passed the floor: %s", line)
	}
	// Neither present: not this sweep's concern.
	if line, ok := checkSpeedupRatio(doc(result{Name: "BenchmarkOther", NsPerOp: 1})); !ok || line != "" {
		t.Fatalf("absent pair reported: %q", line)
	}
	// Half the pair present: the rule cannot be evaluated — fail loudly.
	fresh = doc(result{Name: "BenchmarkRunAllParallel", NsPerOp: 1000})
	if _, ok := checkSpeedupRatio(fresh); ok {
		t.Fatal("incomplete pair passed")
	}
}

func TestParseBenchStream(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: summitscale/internal/core
cpu: Test CPU
BenchmarkRunAll-8   	      10	 110000000 ns/op	  500000 B/op	    9000 allocs/op
PASS
ok  	summitscale/internal/core	2.0s
`
	d, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks", len(d.Benchmarks))
	}
	r := d.Benchmarks[0]
	if r.Name != "BenchmarkRunAll" || r.NsPerOp != 110000000 || r.AllocsPerOp != 9000 {
		t.Fatalf("parsed %+v", r)
	}
	if d.Goos != "linux" || d.CPU != "Test CPU" {
		t.Fatalf("header lost: %+v", d)
	}
	if d.Gomaxprocs != 8 {
		t.Fatalf("GOMAXPROCS suffix not lifted into header: %+v", d)
	}
}

func TestParseGomaxprocsDefaultsToOne(t *testing.T) {
	in := "BenchmarkMDForces/serial   	 100	 4000000 ns/op\n"
	d, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if d.Gomaxprocs != 1 {
		t.Fatalf("suffix-free run recorded gomaxprocs %d, want 1", d.Gomaxprocs)
	}
	if d.Benchmarks[0].Name != "BenchmarkMDForces/serial" {
		t.Fatalf("non-numeric name mangled: %q", d.Benchmarks[0].Name)
	}
}

func TestKernelFloorsGatedOnProcs(t *testing.T) {
	// At 1 recorded core the speedup floors are reported but not enforced.
	fresh := doc(result{Name: "BenchmarkGemmRowStream256", NsPerOp: 1000},
		result{Name: "BenchmarkGemmParallel256", NsPerOp: 950})
	fresh.Gomaxprocs = 1
	if _, failed := checkKernelFloors(fresh); len(failed) != 0 {
		t.Fatalf("speedup floor enforced at 1 core: %v", failed)
	}
	// At 8 cores a 1.05x packed "speedup" is a failure against the 2x floor.
	fresh.Gomaxprocs = 8
	if _, failed := checkKernelFloors(fresh); len(failed) != 1 {
		t.Fatalf("below-floor Gemm ratio not flagged at 8 cores: %v", failed)
	}
	// 2.5x clears it.
	fresh = doc(result{Name: "BenchmarkGemmRowStream256", NsPerOp: 2500},
		result{Name: "BenchmarkGemmParallel256", NsPerOp: 1000})
	fresh.Gomaxprocs = 8
	if _, failed := checkKernelFloors(fresh); len(failed) != 0 {
		t.Fatalf("2.5x Gemm ratio failed the 2x floor: %v", failed)
	}
}

func TestKernelFloorMDAndAllocs(t *testing.T) {
	fresh := doc(result{Name: "BenchmarkMDForces/serial", NsPerOp: 1000},
		result{Name: "BenchmarkMDForces/parallel", NsPerOp: 900},
		result{Name: "BenchmarkTrainStepAlloc/scratch", NsPerOp: 1, AllocsPerOp: 46})
	fresh.Gomaxprocs = 8
	_, failed := checkKernelFloors(fresh)
	// 1.11x misses the 1.2x MD floor AND 46 allocs breaches the 45 ceiling.
	if len(failed) != 2 {
		t.Fatalf("want MD-floor + alloc-ceiling failures, got %v", failed)
	}
	// The alloc ceiling applies even at 1 core.
	fresh.Gomaxprocs = 1
	if _, failed := checkKernelFloors(fresh); len(failed) != 1 {
		t.Fatalf("alloc ceiling not enforced at 1 core: %v", failed)
	}
}

func TestKernelFloorIncompletePairFails(t *testing.T) {
	fresh := doc(result{Name: "BenchmarkGemmParallel256", NsPerOp: 1000})
	fresh.Gomaxprocs = 8
	if _, failed := checkKernelFloors(fresh); len(failed) != 1 {
		t.Fatalf("half a floor pair passed: %v", failed)
	}
}

func TestServeBatchingFloor(t *testing.T) {
	// 3x unbatched/batched clears the 2x serving floor.
	fresh := doc(result{Name: "BenchmarkServeHotPath/unbatched", NsPerOp: 3000},
		result{Name: "BenchmarkServeHotPath/batched", NsPerOp: 1000})
	fresh.Gomaxprocs = 8
	if _, failed := checkKernelFloors(fresh); len(failed) != 0 {
		t.Fatalf("3x serve batching speedup failed the 2x floor: %v", failed)
	}
	// 1.5x misses it.
	fresh = doc(result{Name: "BenchmarkServeHotPath/unbatched", NsPerOp: 1500},
		result{Name: "BenchmarkServeHotPath/batched", NsPerOp: 1000})
	fresh.Gomaxprocs = 8
	lines, failed := checkKernelFloors(fresh)
	if len(failed) != 1 || failed[0] != "ServeHotPath unbatched/batched" {
		t.Fatalf("below-floor serve ratio not flagged: %v", failed)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "ServeHotPath") {
		t.Fatalf("serve floor missing from report lines:\n%s", strings.Join(lines, "\n"))
	}
	// Like the kernel floors, it is reported but not enforced on 1 core.
	fresh.Gomaxprocs = 1
	if _, failed := checkKernelFloors(fresh); len(failed) != 0 {
		t.Fatalf("serve floor enforced at 1 core: %v", failed)
	}
}

// TestKernelFloorsReportAllViolations pins the gate's contract that every
// violated floor is listed before the nonzero exit — a run that breaches
// the Gemm, MD, serve, and alloc rules at once must surface all four, not
// stop at the first.
func TestKernelFloorsReportAllViolations(t *testing.T) {
	fresh := doc(
		result{Name: "BenchmarkGemmRowStream256", NsPerOp: 1000},
		result{Name: "BenchmarkGemmParallel256", NsPerOp: 990},
		result{Name: "BenchmarkMDForces/serial", NsPerOp: 1000},
		result{Name: "BenchmarkMDForces/parallel", NsPerOp: 990},
		result{Name: "BenchmarkServeHotPath/unbatched", NsPerOp: 1000},
		result{Name: "BenchmarkServeHotPath/batched", NsPerOp: 990},
		result{Name: "BenchmarkTrainStepAlloc/scratch", NsPerOp: 1, AllocsPerOp: 99},
	)
	fresh.Gomaxprocs = 8
	lines, failed := checkKernelFloors(fresh)
	if len(failed) != 4 {
		t.Fatalf("want all 4 violations reported, got %d: %v", len(failed), failed)
	}
	joined := strings.Join(lines, "\n")
	for _, frag := range []string{"GemmRowStream256", "MDForces", "ServeHotPath", "TrainStepAlloc"} {
		if !strings.Contains(joined, frag) {
			t.Fatalf("violation report missing %s:\n%s", frag, joined)
		}
	}
	if got := strings.Count(joined, "REGRESSION"); got != 4 {
		t.Fatalf("want 4 REGRESSION markers, got %d:\n%s", got, joined)
	}
}

func TestServeRunAllocCeiling(t *testing.T) {
	// The streaming router's allocations clear the 3-per-request ceiling.
	fresh := doc(result{Name: "BenchmarkServeRun", NsPerOp: 1, AllocsPerOp: 8739})
	if _, failed := checkKernelFloors(fresh); len(failed) != 0 {
		t.Fatalf("8,739 allocs/op failed the ServeRun ceiling: %v", failed)
	}
	// The per-arrival closure-and-event loop measured 41,085; like every
	// alloc ceiling it is enforced at any core count.
	fresh = doc(result{Name: "BenchmarkServeRun", NsPerOp: 1, AllocsPerOp: 41085})
	lines, failed := checkKernelFloors(fresh)
	if len(failed) != 1 || failed[0] != "ServeRun allocs" {
		t.Fatalf("41,085 allocs/op not flagged: %v", failed)
	}
	if joined := strings.Join(lines, "\n"); !strings.Contains(joined, "ServeRun allocs/op") ||
		!strings.Contains(joined, "(ceiling 16290)  [REGRESSION]") {
		t.Fatalf("ServeRun ceiling missing from report lines:\n%s", joined)
	}
}

func TestObsHotPathNilAllocCeiling(t *testing.T) {
	// The nil observer is free: zero allocs passes.
	fresh := doc(result{Name: "BenchmarkObsHotPathNil", NsPerOp: 1, AllocsPerOp: 0})
	if _, failed := checkKernelFloors(fresh); len(failed) != 0 {
		t.Fatalf("0 allocs/op failed the ObsHotPathNil ceiling: %v", failed)
	}
	// One escaped variadic args slice per span is a regression.
	fresh = doc(result{Name: "BenchmarkObsHotPathNil", NsPerOp: 39, AllocsPerOp: 1})
	lines, failed := checkKernelFloors(fresh)
	if len(failed) != 1 || failed[0] != "ObsHotPathNil allocs" {
		t.Fatalf("1 alloc/op not flagged: %v", failed)
	}
	if joined := strings.Join(lines, "\n"); !strings.Contains(joined, "ObsHotPathNil allocs/op") ||
		!strings.Contains(joined, "(ceiling 0)  [REGRESSION]") {
		t.Fatalf("ObsHotPathNil ceiling missing from report lines:\n%s", joined)
	}
}
