package core

import (
	"slices"
	"strings"
	"testing"

	"summitscale/internal/obs"
	"summitscale/internal/parallel"
	"summitscale/internal/platform"
)

// TestDAGRegistryGraphValid guards the registry's dependency
// declarations: every Needs key must name a sub-result node the engine
// knows how to build (a typo would otherwise surface as a RunDAG panic).
// That each experiment reads exactly the keys it declares is checked by
// TestRunAllDAGShuffledRegistryOrder's per-experiment pass.
func TestDAGRegistryGraphValid(t *testing.T) {
	known := map[string]bool{}
	for _, sn := range subResultNodes(platform.Summit()) {
		if known[sn.key] {
			t.Errorf("duplicate sub-result node %q", sn.key)
		}
		known[sn.key] = true
		for _, d := range sn.deps {
			if !known[d] {
				t.Errorf("sub-result %q declares dep %q not defined before it", sn.key, d)
			}
		}
	}
	for _, e := range Experiments() {
		for _, k := range e.Needs {
			if !known[k] {
				t.Errorf("experiment %s needs unknown sub-result %q", e.ID, k)
			}
		}
	}
}

// runAllFlat is the legacy flat-registry path: every experiment run
// independently by a bounded pool, no sub-result sharing, no
// memoization. It is the reference the DAG engine must stay
// byte-identical to.
func runAllFlat(workers int) (string, bool) {
	exps := Experiments()
	sections := make([]string, len(exps))
	passed := make([]bool, len(exps))
	parallel.NewPool(workers).ForEach(len(exps), func(i int) {
		r := exps[i].Run()
		sections[i] = RenderResult(exps[i], r) + "\n"
		passed[i] = r.Pass()
	})
	var b strings.Builder
	all := true
	for i, s := range sections {
		b.WriteString(s)
		if !passed[i] {
			all = false
		}
	}
	return b.String(), all
}

// TestRunAllDAGMatchesFlat is the engine's byte-identity contract: the
// DAG scheduler with memoized sub-results must render exactly the
// legacy flat path's report at -j 1, 4, and 16, cold or warm.
func TestRunAllDAGMatchesFlat(t *testing.T) {
	flat, flatPass := runAllFlat(1)
	en := NewEngine()
	for _, workers := range []int{1, 4, 16} {
		got, pass := en.RunAllParallel(workers)
		if pass != flatPass {
			t.Errorf("-j %d: pass %v vs flat %v", workers, pass, flatPass)
		}
		if got != flat {
			t.Fatalf("-j %d: DAG report diverged from flat path (%d vs %d bytes)",
				workers, len(got), len(flat))
		}
	}
	// Second pass over the warm cache: still byte-identical.
	if warm, _ := en.RunAllParallel(4); warm != flat {
		t.Fatal("warm-cache DAG report diverged from flat path")
	}
}

// TestRunAllDAGShuffledRegistryOrder runs the engine over a permuted
// experiment list: each section must be byte-identical to the
// experiment's own render, independent of declaration order. The
// per-experiment reference pass runs each body against a fresh cache,
// which records every key the body reads (a miss stores the built
// value): the recorded sub/* keys must be exactly the experiment's
// Needs, or the DAG would schedule a consumer before its input or build
// a sub-result nobody reads.
func TestRunAllDAGShuffledRegistryOrder(t *testing.T) {
	exps := Experiments()
	shuffled := make([]Experiment, len(exps))
	// Fixed permutation: reversed, which moves every consumer ahead of
	// the order its sub-results were declared in.
	for i, e := range exps {
		shuffled[len(exps)-1-i] = e
	}
	var want strings.Builder
	for _, e := range shuffled {
		c := NewCache()
		want.WriteString(RenderResult(e, e.Body(Env{Cache: c})) + "\n")
		if read, declared := subKeys(c), sortedCopy(e.Needs); !slices.Equal(read, declared) {
			t.Errorf("experiment %s reads sub-results %q but declares Needs %q", e.ID, read, declared)
		}
	}
	got, _ := NewEngine().run(shuffled, 4, nil)
	if got != want.String() {
		t.Fatal("shuffled registry order changed the DAG engine's per-experiment output")
	}
}

// subKeys lists the sub-result keys memoized in c, sorted.
func subKeys(c *Cache) []string {
	var keys []string
	for k := range c.vals {
		if strings.HasPrefix(k, "sub/") {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return keys
}

func sortedCopy(s []string) []string {
	out := slices.Clone(s)
	slices.Sort(out)
	return out
}

// TestEngineCacheMemoizes pins the memoization contract: one run fills
// the keyed cache (shared sub-results and per-experiment results), a
// second run adds nothing and returns identical bytes.
func TestEngineCacheMemoizes(t *testing.T) {
	en := NewEngine()
	if en.Cache().Len() != 0 {
		t.Fatal("fresh engine cache not empty")
	}
	first, _ := en.RunAllParallel(2)
	filled := en.Cache().Len()
	p := platform.Summit()
	for _, key := range []string{
		keyPortfolio,
		keyScalingStudies(p),
		keyChaosReport(p, "rack-cascade"),
		"result/RS1",
		"result/W1",
	} {
		if !en.Cache().has(key) {
			t.Errorf("cache missing %q after a full run", key)
		}
	}
	again, _ := en.RunAllParallel(2)
	if again != first {
		t.Error("warm run diverged from cold run")
	}
	if got := en.Cache().Len(); got != filled {
		t.Errorf("warm run grew the cache from %d to %d entries", filled, got)
	}
}

// TestChaosThroughDAGSmoke is the chaos-engine smoke check of the DAG
// refactor: the RS3/RS4 sections produced by the scheduler — with RS4
// resolving its scenarios from RS3's memoized runs — must contain the
// captured Summit goldens byte-for-byte.
func TestChaosThroughDAGSmoke(t *testing.T) {
	report, _ := NewEngine().RunAllParallel(4)
	for _, name := range []string{"chaos-RS3.golden", "chaos-RS4.golden"} {
		want := readGolden(t, name)
		if !strings.Contains(report, want) {
			t.Errorf("DAG report does not contain the %s bytes", name)
		}
	}
}

// TestObservedRunEmitsDAGSpans checks the scheduler's own trace track:
// observed runs record one deterministic span per DAG node.
func TestObservedRunEmitsDAGSpans(t *testing.T) {
	ob := obs.New()
	if _, ok := RunAllObserved(2, ob); !ok {
		t.Fatal("observed run failed")
	}
	trace := string(ob.Trace.ChromeTrace())
	for _, frag := range []string{`"dag"`, "exp/RS3", "exp/F1"} {
		if !strings.Contains(trace, frag) {
			t.Errorf("trace missing %q", frag)
		}
	}
}
