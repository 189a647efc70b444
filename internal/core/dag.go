package core

import (
	"strings"
	"sync"

	"summitscale/internal/bench"
	"summitscale/internal/chaos"
	"summitscale/internal/obs"
	"summitscale/internal/parallel"
	"summitscale/internal/platform"
	"summitscale/internal/portfolio"
	"summitscale/internal/units"
)

// The dependency-DAG experiment engine. The registry used to be a flat
// list run by a bounded pool, which recomputed every shared intermediate
// inside each experiment: F1–F6 each regenerated the reconstructed
// portfolio, RS1 re-derived the §IV-B scaling studies, and RS4 re-ran
// the same chaos scenarios RS3 had already simulated at the same seed.
// Experiments now declare the sub-results they consume (Experiment.
// Needs), each sub-result is a node in a parallel.RunDAG graph computed
// once and memoized in a keyed Cache, and experiment bodies resolve
// shared work through the cache instead of rebuilding it. Rendered
// output is byte-identical to running each experiment on its own, at
// any -j, observed or not: every section is written to its own slot and
// concatenated in registry order, and every cached value is a
// deterministic pure function of its key.

// Cache is the keyed sub-result store shared by a DAG run (and, via
// Engine, across runs). A nil *Cache is valid and means "no
// memoization": get simply builds. Values must be treated as immutable
// by all consumers.
type Cache struct {
	mu   sync.Mutex
	vals map[string]any
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{vals: map[string]any{}} }

// get returns the cached value for key, building and storing it on a
// miss. Concurrent misses may build twice; the first store wins, so
// callers always observe one canonical value. (The DAG engine orders
// sub-result nodes before their consumers, so in practice builds are
// never concurrent for the same key.)
func (c *Cache) get(key string, build func() any) any {
	if c == nil {
		return build()
	}
	c.mu.Lock()
	if v, ok := c.vals[key]; ok {
		c.mu.Unlock()
		return v
	}
	c.mu.Unlock()
	v := build()
	c.mu.Lock()
	if prev, ok := c.vals[key]; ok {
		v = prev
	} else {
		c.vals[key] = v
	}
	c.mu.Unlock()
	return v
}

// has reports whether key is already memoized.
func (c *Cache) has(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.vals[key]
	return ok
}

// Len returns the number of memoized entries (observability/tests).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.vals)
}

// Sub-result cache keys. Keys are namespaced "sub/..." (shared
// intermediates, one DAG node each) and "result/<ID>" (whole-experiment
// memoization, handled by the engine). Platform-dependent keys embed the
// platform name so replays on other machines never collide with the
// Summit baseline.
const keyPortfolio = "sub/portfolio/dataset"

func keyScalingStudies(p platform.Platform) string {
	return "sub/scaling/studies/" + p.Name
}

func keyChaosReport(p platform.Platform, scenario string) string {
	return "sub/chaos/report/" + p.Name + "/" + scenario
}

func keyCampaignStorm(p platform.Platform) string {
	return "sub/bench/campaign-storm/" + p.Name
}

// keySDCReport is platform-free: the guarded-training ablation injects
// bit flips into an executable run and never consults the fabric, so
// every machine shares one canonical report per scenario.
func keySDCReport(scenario string) string {
	return "sub/chaos/sdc/" + scenario
}

// cachedStudy resolves the canonical reconstructed portfolio dataset
// (the Figure 1–6 input) through the cache.
func cachedStudy(c *Cache) *portfolio.Dataset {
	return c.get(keyPortfolio, func() any { return portfolio.Generate(StudySeed) }).(*portfolio.Dataset)
}

// cachedScalingStudies resolves the §IV-B calibrated scaling studies for
// a platform through the cache.
func cachedScalingStudies(c *Cache, p platform.Platform) []ScalingStudy {
	return c.get(keyScalingStudies(p), func() any { return ScalingStudiesOn(p) }).([]ScalingStudy)
}

// chaosOutcome carries a chaos scenario run through the cache; the error
// is part of the memoized value so retries are as deterministic as
// successes.
type chaosOutcome struct {
	rep *chaos.Report
	err error
}

// cachedChaosReport resolves one unobserved chaos scenario run (RS3's
// sweep and RS4's policy comparisons share these at the same seed).
func cachedChaosReport(c *Cache, p platform.Platform, scenario string) (*chaos.Report, error) {
	out := c.get(keyChaosReport(p, scenario), func() any {
		sc, err := chaos.Builtin(scenario)
		if err != nil {
			return chaosOutcome{nil, err}
		}
		rep, err := chaos.Run(sc, resilienceSeed, chaos.Config{Platform: p})
		return chaosOutcome{rep, err}
	}).(chaosOutcome)
	return out.rep, out.err
}

// campaignStormOutcome carries the chaos-campaign replay through the
// cache; the error is part of the memoized value.
type campaignStormOutcome struct {
	rep *chaos.CampaignChaosReport
	err error
}

// cachedCampaignStorm resolves the campaign-storm replay (which embeds
// the failure-free mixed campaign as its Base) for a platform. Observed
// callers bypass the cache so campaign spans are re-recorded per run.
func cachedCampaignStorm(c *Cache, p platform.Platform, ob *obs.Observer) (*chaos.CampaignChaosReport, error) {
	if ob != nil {
		rep, err := chaos.RunCampaign(p, chaos.CampaignStorm(), mlperfSeed, bench.DefaultCampaign(p), mlperfWorkers, ob)
		return rep, err
	}
	out := c.get(keyCampaignStorm(p), func() any {
		rep, err := chaos.RunCampaign(p, chaos.CampaignStorm(), mlperfSeed, bench.DefaultCampaign(p), mlperfWorkers, nil)
		return campaignStormOutcome{rep, err}
	}).(campaignStormOutcome)
	return out.rep, out.err
}

// sdcOutcome carries the silent-data-corruption ablation through the
// cache together with its invariant verdict, so RS5 and RS3 share one
// verified ablation. err is a failed run (rep is then nil); invariants
// is chaos.CheckSDCInvariants' verdict on rep.
type sdcOutcome struct {
	rep        *chaos.SDCReport
	invariants error
	err        error
}

// cachedSDC resolves the guarded-training SDC ablation of one scenario at
// the study seed, checked against an independent replay.
func cachedSDC(c *Cache, scenario string) sdcOutcome {
	return c.get(keySDCReport(scenario), func() any {
		sc, err := chaos.Builtin(scenario)
		if err != nil {
			return sdcOutcome{err: err}
		}
		rep, err := chaos.RunSDC(sc, resilienceSeed, chaos.SDCConfig{})
		if err != nil {
			return sdcOutcome{err: err}
		}
		return sdcOutcome{rep: rep, invariants: chaos.CheckSDCInvariants(rep, sc)}
	}).(sdcOutcome)
}

// sdcScenarios lists the builtin scenarios that declare sdc bursts: the
// ones whose ablation is a shared sub-result.
func sdcScenarios() []string {
	var out []string
	for _, name := range chaos.Names() {
		if sc, err := chaos.Builtin(name); err == nil && len(sc.SDCs) > 0 {
			out = append(out, name)
		}
	}
	return out
}

// subResultNode is one shared-intermediate node of the experiment DAG.
type subResultNode struct {
	key  string
	deps []string
	run  func(c *Cache)
}

// subResultNodes enumerates every shared intermediate the registry's
// experiments may declare in Needs, for the given platform.
func subResultNodes(p platform.Platform) []subResultNode {
	nodes := []subResultNode{
		{key: keyPortfolio, run: func(c *Cache) { cachedStudy(c) }},
		{key: keyScalingStudies(p), run: func(c *Cache) { cachedScalingStudies(c, p) }},
	}
	for _, name := range chaos.Names() {
		name := name
		nodes = append(nodes, subResultNode{
			key: keyChaosReport(p, name),
			run: func(c *Cache) { cachedChaosReport(c, p, name) },
		})
	}
	nodes = append(nodes, subResultNode{
		key: keyCampaignStorm(p),
		run: func(c *Cache) { cachedCampaignStorm(c, p, nil) },
	})
	for _, name := range sdcScenarios() {
		name := name
		nodes = append(nodes, subResultNode{
			key: keySDCReport(name),
			run: func(c *Cache) { cachedSDC(c, name) },
		})
	}
	return nodes
}

// Engine runs the registry through the DAG scheduler with a persistent
// sub-result cache: the first run computes every node once (shared
// intermediates deduplicated across experiments), subsequent runs reuse
// memoized results — the MLPerf-HPC "multi-instance" framing where
// shared setup work must not be redundantly recomputed per instance.
// An Engine is safe for concurrent use.
type Engine struct{ cache *Cache }

// NewEngine returns an engine with a cold cache.
func NewEngine() *Engine { return &Engine{cache: NewCache()} }

// Cache exposes the engine's memo store (tests and diagnostics).
func (en *Engine) Cache() *Cache { return en.cache }

// RunAllParallel executes the full registry through the DAG scheduler
// with at most workers goroutines and renders the report in registry
// order, byte-identical at any worker count and any cache temperature.
func (en *Engine) RunAllParallel(workers int) (string, bool) {
	return en.RunAllObserved(workers, nil)
}

// RunAllObserved is RunAllParallel with every instrumented experiment
// recording into ob. Observed runs take the same DAG path — sub-result
// nodes are scheduled and shared through the cache either way — with
// two differences: they skip the whole-experiment result/<ID> memo, so
// every experiment re-records its spans, and they emit one
// deterministic "dag" span per experiment node, carrying its declared
// dependencies.
func (en *Engine) RunAllObserved(workers int, ob *obs.Observer) (string, bool) {
	return en.run(Experiments(), workers, ob)
}

func (en *Engine) run(exps []Experiment, workers int, ob *obs.Observer) (string, bool) {
	env := Env{Cache: en.cache, Obs: ob}
	sections := make([]string, len(exps))
	passed := make([]bool, len(exps))
	need := map[string]bool{}
	for _, e := range exps {
		for _, k := range e.Needs {
			need[k] = true
		}
	}
	var nodes []parallel.Node
	for _, sn := range subResultNodes(platform.Summit()) {
		if !need[sn.key] {
			continue
		}
		sn := sn
		nodes = append(nodes, parallel.Node{
			ID:   sn.key,
			Deps: sn.deps,
			Run:  func() { sn.run(env.Cache) },
		})
	}
	for i := range exps {
		i, e := i, exps[i]
		nodes = append(nodes, parallel.Node{
			ID:   "exp/" + e.ID,
			Deps: e.Needs,
			Run: func() {
				r := runNode(e, i, env)
				sections[i] = RenderResult(e, r) + "\n"
				passed[i] = r.Pass()
			},
		})
	}
	if err := parallel.NewPool(workers).RunDAG(nodes); err != nil {
		// The registry's graph is static and validated by tests; a
		// malformed graph here is a programming error.
		panic(err)
	}
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

// runNode executes experiment node i. Unobserved runs memoize the whole
// Result under result/<ID>; observed runs skip that memo, so the body
// re-records its spans, and add the node's own dag span.
func runNode(e Experiment, i int, env Env) Result {
	if env.Obs == nil {
		return env.Cache.get("result/"+e.ID, func() any { return e.Body(env) }).(Result)
	}
	env.Obs.Span("dag", "schedule", "exp/"+e.ID,
		units.Seconds(i), 1, obs.Str("needs", strings.Join(e.Needs, ",")))
	return e.Body(env)
}
