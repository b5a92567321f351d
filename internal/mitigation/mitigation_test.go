package mitigation

import (
	"testing"

	"phirel/internal/core"
	"phirel/internal/state"
)

func TestSelectivePlan(t *testing.T) {
	res := &core.CampaignResult{
		ByRegion: map[state.Region]core.OutcomeCounts{
			"control": {Masked: 100, SDC: 150, DUECrash: 250}, // 500 inj, 80% harmful
			"matrix":  {Masked: 200, SDC: 250, DUECrash: 50},  // 500 inj, 60% harmful
		},
	}
	res.Outcomes = core.OutcomeCounts{Masked: 300, SDC: 400, DUECrash: 300}
	plan := SelectivePlan(res, 0.25, 10)
	if len(plan.Entries) == 0 {
		t.Fatal("empty plan")
	}
	if plan.TotalOverhead > 0.25+1e-9 {
		t.Fatalf("budget exceeded: %v", plan.TotalOverhead)
	}
	if plan.HarmAfter >= plan.HarmBefore {
		t.Fatal("plan removed nothing")
	}
	if plan.Improvement() <= 1 {
		t.Fatalf("improvement %v", plan.Improvement())
	}
	// A tighter budget must not remove more harm.
	tight := SelectivePlan(res, 0.05, 10)
	if tight.HarmBefore-tight.HarmAfter > plan.HarmBefore-plan.HarmAfter+1e-12 {
		t.Fatal("tighter budget outperformed larger one")
	}
}

func TestSelectivePlanEmptyCampaign(t *testing.T) {
	res := &core.CampaignResult{ByRegion: map[state.Region]core.OutcomeCounts{}}
	plan := SelectivePlan(res, 1, 1)
	if len(plan.Entries) != 0 || plan.Improvement() != 1 {
		t.Fatal("degenerate plan")
	}
}
