package main

import (
	"math"
	"strings"
	"testing"

	"summitscale/internal/ddl"
	"summitscale/internal/platform"
	"summitscale/internal/serve"
)

func TestCheckReportCatchesAlteredByte(t *testing.T) {
	want := "== S6: serving ==\n  batched run rejections  paper 0  measured 0 [ok]\n"
	if err := checkReport(want, true, want); err != nil {
		t.Fatalf("identical report rejected: %v", err)
	}
	for i := range want {
		got := []byte(want)
		got[i] ^= 1
		if checkReport(string(got), true, want) == nil {
			t.Fatalf("report with byte %d altered passed", i)
		}
	}
	if checkReport(want[:len(want)-1], true, want) == nil {
		t.Fatal("truncated report passed")
	}
	if checkReport(want, false, want) == nil {
		t.Fatal("report with deviating metrics passed")
	}
}

func TestCheckEpochCatchesPerturbedLoss(t *testing.T) {
	ref := 0.6931471805599453
	ok := epochOutcome{loss: ref, consistent: true, steps: 96}
	if err := checkEpoch(ok, ref); err != nil {
		t.Fatalf("reference epoch rejected: %v", err)
	}
	for _, loss := range []float64{ref * (1 + 1e-9), ref * (1 - 1e-9), math.NaN(), math.Inf(1)} {
		bad := ok
		bad.loss = loss
		if checkEpoch(bad, ref) == nil {
			t.Errorf("final loss %v passed against %v", loss, ref)
		}
	}
	diverged := ok
	diverged.consistent = false
	if checkEpoch(diverged, ref) == nil {
		t.Error("diverged replicas passed")
	}
}

func TestCheckRecoveredCatchesPerturbedParam(t *testing.T) {
	clean := []float64{0.25, -1.5, 3e-7, 0}
	res := &ddl.GuardedResult{FinalParams: append([]float64(nil), clean...), Detections: 2}
	if err := checkRecovered(res, clean, 4); err != nil {
		t.Fatalf("recovered run rejected: %v", err)
	}
	for i := range clean {
		bad := *res
		bad.FinalParams = append([]float64(nil), clean...)
		bad.FinalParams[i] = math.Float64frombits(math.Float64bits(clean[i]) ^ 1)
		if checkRecovered(&bad, clean, 4) == nil {
			t.Errorf("parameter %d off by one ulp passed", i)
		}
	}
	short := *res
	short.FinalParams = clean[:3]
	if checkRecovered(&short, clean, 4) == nil {
		t.Error("missing parameter passed")
	}
	undetected := *res
	undetected.Detections = 0
	if checkRecovered(&undetected, clean, 4) == nil {
		t.Error("injected flips without a detection passed")
	}
	if err := checkRecovered(&undetected, clean, 0); err != nil {
		t.Errorf("run without flips needs no detection: %v", err)
	}
}

func TestCheckServeCatchesDroppedRequest(t *testing.T) {
	models := serve.DefaultModels(3)
	spec := serve.DefaultTraffic()
	spec.Horizon = 5
	reqs, err := spec.Generate(3, models)
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{Platform: platform.Summit(), Models: models, Horizon: spec.Horizon, Workers: 1}
	ref, err := serve.Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	got, err := serve.Run(cfg, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkServe(got, ref); err != nil {
		t.Fatalf("same run at another worker count rejected: %v", err)
	}

	dropped := *got
	dropped.Served--
	if err := checkServe(&dropped, ref); err == nil || !strings.Contains(err.Error(), "requests") {
		t.Errorf("dropped request: got %v, want a ledger error", err)
	}
	// A request dropped before routing keeps the ledger balanced; the
	// comparison with the reference catches it.
	short, err := serve.Run(cfg, reqs[1:])
	if err != nil {
		t.Fatal(err)
	}
	if checkServe(short, ref) == nil {
		t.Error("run missing a request passed")
	}
	perturbed := *got
	perturbed.Checksum = math.Nextafter(got.Checksum, math.Inf(1))
	if checkServe(&perturbed, ref) == nil {
		t.Error("perturbed checksum passed")
	}
}
