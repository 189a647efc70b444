package core

import (
	"fmt"
	"math"
	"strings"

	"summitscale/internal/ga"
	"summitscale/internal/mc"
	"summitscale/internal/stats"
	"summitscale/internal/surrogate"
	"summitscale/internal/workflow"
)

func workflowExperiments() []Experiment {
	return []Experiment{materialsExperiment(), biologyExperiment(), drugExperiment()}
}

// materialsExperiment reproduces §V-A (Liu et al.) in miniature: an
// active-learning loop fits a bond-energy surrogate to reference alloy
// energies (BIC-selected), then the surrogate-driven Monte Carlo
// reproduces the reference order–disorder transition curve.
func materialsExperiment() Experiment {
	return Experiment{
		ID:         "W1",
		Title:      "§V-A materials — MC + surrogate active-learning loop",
		PaperClaim: "ML model refined with MC-generated data reproduces the reference order-disorder transition",
		Body: func(Env) Result {
			rng := stats.NewRNG(3)
			ref := mc.ReferenceModel{J: 1, Anharmonicity: 0.1}
			const latticeL = 6

			// Active learning: configurations proposed by sweeping lattices
			// at random temperatures; features are (like, unlike) bond
			// counts; reference labels are exact energies.
			type sample struct{ like, unlike float64 }
			hooks := workflow.ActiveLearningHooks[sample, surrogate.Ridge]{
				Propose: func(_ *surrogate.Ridge, round, count int) []sample {
					out := make([]sample, 0, count)
					for i := 0; i < count; i++ {
						// Mixed lattice sizes vary the total bond count, so
						// the (like, unlike) features span two dimensions
						// and both bond energies are identifiable.
						size := 4 + 2*rng.Intn(2)
						lat := mc.NewLattice(size, ref)
						T := 0.5 + rng.Float64()*10
						for s := 0; s < 5+round*3; s++ {
							lat.Sweep(rng, T)
						}
						like, unlike := lat.BondCounts()
						out = append(out, sample{float64(like), float64(unlike)})
					}
					return out
				},
				Reference: func(s sample) float64 {
					return s.like*ref.PairEnergy(true) + s.unlike*ref.PairEnergy(false)
				},
				Fit: func(xs []sample, ys []float64) (*surrogate.Ridge, error) {
					feats := make([][]float64, len(xs))
					for i, s := range xs {
						feats[i] = []float64{s.like, s.unlike}
					}
					m, _, err := surrogate.SelectByBIC(feats, ys, 1e-9)
					return m, err
				},
				Validate: func(m *surrogate.Ridge) float64 {
					// Per-bond coefficient error vs the reference. A
					// BIC-truncated model (fewer than both features) cannot
					// resolve the bond energies and scores poorly.
					if len(m.Weights) < 3 {
						return math.Inf(1)
					}
					likeHat := m.Predict([]float64{1, 0}) - m.Predict([]float64{0, 0})
					unlikeHat := m.Predict([]float64{0, 1}) - m.Predict([]float64{0, 0})
					return math.Abs(likeHat-ref.PairEnergy(true)) + math.Abs(unlikeHat-ref.PairEnergy(false))
				},
			}
			res, err := workflow.ActiveLearn(workflow.ActiveLearningConfig{Rounds: 4, BatchPerRound: 12}, hooks)
			if err != nil {
				return Result{Metrics: []Metric{{Name: "active learning failed", Paper: 0, Measured: 1, Tol: 1e-9}},
					Detail: err.Error()}
			}
			coefErr := res.ErrorPerRound[len(res.ErrorPerRound)-1]
			if len(res.Model.Weights) < 3 {
				return Result{Metrics: []Metric{{Name: "BIC kept both bond features (1=yes)",
					Paper: 1, Measured: 0, Tol: 1e-9}}, Detail: "model truncated"}
			}

			// Learned-model transition curve vs the reference curve.
			likeHat := res.Model.Predict([]float64{1, 0}) - res.Model.Predict([]float64{0, 0})
			unlikeHat := res.Model.Predict([]float64{0, 1}) - res.Model.Predict([]float64{0, 0})
			learned := mc.LearnedModel{LikeE: likeHat, UnlikeE: unlikeHat}
			temps := []float64{0.5, 2, 4, 8, 16}
			refCurve := mc.TransitionCurve(stats.NewRNG(11), latticeL, ref, temps, 30, 15)
			lrnCurve := mc.TransitionCurve(stats.NewRNG(11), latticeL, learned, temps, 30, 15)
			var maxDev float64
			var b strings.Builder
			b.WriteString("order-disorder transition: T, reference OP, surrogate OP\n")
			for i, T := range temps {
				if d := math.Abs(refCurve[i] - lrnCurve[i]); d > maxDev {
					maxDev = d
				}
				fmt.Fprintf(&b, "  T=%5.1f  ref %.3f  surrogate %.3f\n", T, refCurve[i], lrnCurve[i])
			}
			fmt.Fprintf(&b, "reference calls: %d; learned bond energies: like %.3f unlike %.3f\n",
				res.ReferenceCalls, likeHat, unlikeHat)
			return Result{
				Metrics: []Metric{
					{Name: "surrogate bond-energy error", Paper: 0, Measured: coefErr, Tol: 0.05},
					{Name: "max transition-curve deviation", Paper: 0, Measured: maxDev, Tol: 0.25},
					{Name: "cold phase ordered (ref)", Paper: 1, Measured: refCurve[0], Tol: 0.15},
					{Name: "hot phase disordered (ref)", Paper: 0, Measured: refCurve[len(refCurve)-1], Tol: 0.35},
				},
				Detail: b.String(),
			}
		},
	}
}

// biologyExperiment reproduces §V-B (Trifan et al.) as a multi-facility
// campaign timeline: FFEA and AAMD stages at different facilities coupled
// through CVAE/ANCA-AE/GNO training on Summit, iterated twice.
func biologyExperiment() Experiment {
	run := func(env Env) Result {
		w := workflow.New()
		w.MustAdd(&workflow.Task{Name: "cryoem-input", Facility: "thetagpu", Duration: 20})
		prev := "cryoem-input"
		iterations := 2
		for i := 0; i < iterations; i++ {
			ffea := fmt.Sprintf("ffea-%d", i)
			aamd := fmt.Sprintf("aamd-%d", i)
			anca := fmt.Sprintf("anca-ae-%d", i)
			cvae := fmt.Sprintf("cvae-train-%d", i)
			gno := fmt.Sprintf("gno-couple-%d", i)
			w.MustAdd(&workflow.Task{Name: ffea, Facility: "thetagpu", Duration: 100, Deps: []string{prev}})
			w.MustAdd(&workflow.Task{Name: aamd, Facility: "perlmutter", Duration: 150, Deps: []string{prev}})
			w.MustAdd(&workflow.Task{Name: anca, Facility: "thetagpu", Duration: 30, Deps: []string{ffea}})
			w.MustAdd(&workflow.Task{Name: cvae, Facility: "summit", Duration: 80, Deps: []string{aamd}})
			w.MustAdd(&workflow.Task{Name: gno, Facility: "thetagpu", Duration: 40, Deps: []string{anca, cvae}})
			prev = gno
		}
		tl, err := w.Simulate([]workflow.Facility{
			{Name: "summit", Capacity: 4},
			{Name: "perlmutter", Capacity: 2},
			{Name: "thetagpu", Capacity: 2},
		})
		if err != nil {
			return Result{Metrics: []Metric{{Name: "simulate failed", Paper: 0, Measured: 1, Tol: 1e-9}},
				Detail: err.Error()}
		}
		w.TraceTimeline(tl, env.Obs)
		// Serial lower bound of the critical chain per iteration:
		// max(ffea+anca, aamd+cvae) + gno = max(130, 230) + 40 = 270.
		wantMakespan := 20.0 + float64(iterations)*270
		var b strings.Builder
		fmt.Fprintf(&b, "campaign makespan: %.0f s over %d coupled iterations\n", tl.Makespan, iterations)
		for _, f := range []string{"summit", "perlmutter", "thetagpu"} {
			fmt.Fprintf(&b, "  %-11s utilization %.1f%%\n", f, 100*tl.Utilization[f])
		}
		return Result{
			Metrics: []Metric{
				{Name: "campaign makespan", Paper: wantMakespan, Measured: tl.Makespan, Unit: "s", Tol: 0.01},
				{Name: "FFEA/AAMD overlap achieved (1=yes)", Paper: 1,
					Measured: boolMetric(tl.Start["aamd-0"] < tl.End["ffea-0"]), Tol: 1e-9},
			},
			Detail: b.String(),
		}
	}
	return Experiment{
		ID:         "W2",
		Title:      "§V-B biology — multi-facility replication-transcription campaign",
		PaperClaim: "AI components impose consistency between FFEA and AAMD across Summit, Perlmutter, ThetaGPU",
		Body:       run,
	}
}

// drugExperiment reproduces §V-C (Saadi et al. / Blanchard GA) in
// miniature: a random-forest surrogate scores candidates cheaply, a GA
// searches the compound space, and the top candidates are re-scored by
// the "expensive" reference (docking stand-in); the loop must enrich
// true-high-affinity candidates.
func drugExperiment() Experiment {
	return Experiment{
		ID:         "W3",
		Title:      "§V-C drug design — surrogate-ranked GA lead discovery loop",
		PaperClaim: "surrogate ranking downselects compounds for expensive evaluation; loop enriches high-affinity leads",
		Body: func(Env) Result {
			rng := stats.NewRNG(17)
			cfg := ga.DefaultConfig()

			// Ground-truth "docking score": favours a particular pharmaco-
			// phore pattern (token 7 in even positions, token 3 adjacency).
			truth := func(genes []int) float64 {
				var s float64
				for i, g := range genes {
					if g == 7 && i%2 == 0 {
						s += 1
					}
					if i > 0 && g == 3 && genes[i-1] == 3 {
						s += 0.5
					}
				}
				return s
			}
			randomGenes := func() []int {
				genes := make([]int, cfg.Genes)
				for j := range genes {
					genes[j] = rng.Intn(cfg.Vocab)
				}
				return genes
			}
			meanTopTruth := func(pop []ga.Candidate, k int) float64 {
				var s float64
				for i := 0; i < k && i < len(pop); i++ {
					s += truth(pop[i].Genes)
				}
				return s / float64(k)
			}

			// Seed training set: random compounds with reference labels.
			var feats [][]float64
			var labels []float64
			addLabelled := func(genes []int) {
				feats = append(feats, genesToFeatures(genes, cfg.Vocab))
				labels = append(labels, truth(genes))
			}
			for i := 0; i < 200; i++ {
				addLabelled(randomGenes())
			}
			// Random-screening baseline: mean truth of the 8 best among 200
			// random compounds (what the same reference budget buys without
			// the loop).
			baselinePop := make([]ga.Candidate, 200)
			for i := range baselinePop {
				g := randomGenes()
				baselinePop[i] = ga.Candidate{Genes: g, Score: truth(g)}
			}
			sortCandidates(baselinePop)
			baseline := meanTopTruth(baselinePop, 8)

			// Iterative loop: surrogate -> GA -> reference-score top leads
			// -> retrain surrogate on the enriched set.
			var leadMeans []float64
			var finalLeads float64
			rounds := 3
			for round := 0; round < rounds; round++ {
				forest := surrogate.FitForest(rng, feats, labels, 30, 8, 2)
				pop, _ := ga.Search(rng, cfg, 30, func(genes []int) float64 {
					return forest.Predict(genesToFeatures(genes, cfg.Vocab))
				})
				for i := 0; i < 16 && i < len(pop); i++ {
					addLabelled(pop[i].Genes)
				}
				finalLeads = meanTopTruth(pop, 8)
				leadMeans = append(leadMeans, finalLeads)
			}

			var b strings.Builder
			fmt.Fprintf(&b, "mean true docking score of top-8 leads per round: ")
			for _, v := range leadMeans {
				fmt.Fprintf(&b, "%.2f ", v)
			}
			fmt.Fprintf(&b, "\nrandom-screening baseline (same budget): %.2f\n", baseline)
			return Result{
				Metrics: []Metric{
					{Name: "loop enriches leads (1=yes)", Paper: 1,
						Measured: boolMetric(finalLeads > baseline), Tol: 1e-9},
					{Name: "rounds improve leads (1=yes)", Paper: 1,
						Measured: boolMetric(leadMeans[rounds-1] > leadMeans[0]), Tol: 1e-9},
					{Name: "final mean lead score", Measured: finalLeads},
				},
				Detail: b.String(),
			}
		},
	}
}

// sortCandidates orders a population best-first by score.
func sortCandidates(pop []ga.Candidate) {
	for i := 1; i < len(pop); i++ {
		for j := i; j > 0 && pop[j].Score > pop[j-1].Score; j-- {
			pop[j], pop[j-1] = pop[j-1], pop[j]
		}
	}
}

// genesToFeatures builds the surrogate feature vector: per-position
// one-hot-ish compressed counts (token histogram plus positional parity
// counts for the pharmacophore tokens).
func genesToFeatures(genes []int, vocab int) []float64 {
	f := make([]float64, vocab+2)
	for i, g := range genes {
		f[g]++
		if g == 7 && i%2 == 0 {
			f[vocab]++
		}
		if i > 0 && g == 3 && genes[i-1] == 3 {
			f[vocab+1]++
		}
	}
	return f
}
