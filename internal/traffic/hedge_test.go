package traffic

import (
	"strings"
	"testing"

	"toto/internal/rng"
)

// TestHedgeSpecValidate pins the hedge/class knob validation: each bad
// spec is rejected with an error naming the offending field.
func TestHedgeSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"budget over cap", Spec{Hedge: &HedgeSpec{BudgetRatio: 0.06}}, "budgetRatio"},
		{"negative budget", Spec{Hedge: &HedgeSpec{BudgetRatio: -0.01}}, "budgetRatio"},
		{"delay below 1", Spec{Hedge: &HedgeSpec{DelayMultiple: 0.5}}, "delayMultiple"},
		{"premium delay below 1", Spec{Hedge: &HedgeSpec{PremiumDelayMultiple: 0.9}}, "premiumDelayMultiple"},
		{"premium weight below 1", Spec{Classes: &ClassesSpec{PremiumWeight: 0.5}}, "premiumWeight"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
	ok := Spec{
		Classes: &ClassesSpec{PremiumWeight: 3},
		Routing: &RoutingSpec{},
		Hedge:   &HedgeSpec{DelayMultiple: 4, PremiumDelayMultiple: 2, BudgetRatio: 0.05},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid grayfail spec rejected: %v", err)
	}
}

// TestHedgeSpecDefaults checks default resolution and that resolving
// never mutates the caller's sub-specs (they are shared pointers).
func TestHedgeSpecDefaults(t *testing.T) {
	in := Spec{Classes: &ClassesSpec{}, Hedge: &HedgeSpec{}}
	out := in.withDefaults()
	if out.Classes.Label != "edition" || out.Classes.PremiumWeight != 2 {
		t.Errorf("classes defaults = %+v", out.Classes)
	}
	if len(out.Classes.PremiumEditions) != 1 || out.Classes.PremiumEditions[0] != "Premium/BC" {
		t.Errorf("premium editions default = %v", out.Classes.PremiumEditions)
	}
	if out.Hedge.DelayMultiple != 2 || out.Hedge.PremiumDelayMultiple != 1.5 || out.Hedge.BudgetRatio != 0.02 {
		t.Errorf("hedge defaults = %+v", out.Hedge)
	}
	if in.Classes.Label != "" || in.Hedge.BudgetRatio != 0 {
		t.Error("withDefaults mutated the caller's sub-specs")
	}
}

// tokenBudgetModel shadows a tokenBudget from outside, tracking the
// invariant the budget promises: cumulative grants never exceed the
// configured ratio of cumulative fresh arrivals — tokens only ever
// accrue from fresh load, so neither retries nor hedges can amplify.
type tokenBudgetModel struct {
	fresh   int64
	granted int64
}

func (m *tokenBudgetModel) step(t *testing.T, b *tokenBudget, ratio float64, fresh int, mean float64, desired int) {
	t.Helper()
	b.refill(fresh, mean, ratio)
	g := b.grant(desired)
	if g > desired || g < 0 {
		t.Fatalf("granted %d of %d desired", g, desired)
	}
	if b.tokens < 0 {
		t.Fatalf("budget went negative: %v", b.tokens)
	}
	m.fresh += int64(fresh)
	m.granted += int64(g)
	if float64(m.granted) > ratio*float64(m.fresh)+1e-6 {
		t.Fatalf("amplification: %d grants from %d arrivals at ratio %v",
			m.granted, m.fresh, ratio)
	}
}

// TestTokenBudgetRandomOps is the in-repo property test, mirroring
// TestBreakerRandomOps: long seeded sequences against ratios from both
// users' ranges, the hedge budget's 0 to 0.05 on odd seeds and 0 to 1
// (retries default to 0.2) on even ones.
func TestTokenBudgetRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		src := rng.New(seed)
		ratio := float64(src.Intn(1001)) / 1000 // 0 .. 1
		if seed%2 == 1 {
			ratio /= 20 // 0 .. 0.05
		}
		b := &tokenBudget{}
		m := &tokenBudgetModel{}
		for i := 0; i < 2000; i++ {
			m.step(t, b, ratio, src.Intn(200), src.Float64()*150, src.Intn(300))
		}
	}
}

// FuzzTokenBudget feeds arbitrary operation tapes to the token budget,
// mirroring FuzzBreaker's shape: data[0] picks the ratio, 0 to 1 in
// steps of 0.005 (the hedge budget's 0.02 default and 0.05 ceiling and
// the retry budget's 0.2 default among them), then each 3-byte group is
// (fresh arrivals, tick mean, desired attempts). The bound must hold on
// every prefix: grants never exceed ratio × fresh arrivals.
func FuzzTokenBudget(f *testing.F) {
	f.Add([]byte{50, 100, 60, 200, 0, 0, 10, 30, 30, 255})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{25, 255, 255, 255, 1, 1, 1})
	f.Add([]byte{40, 200, 50, 255, 3, 9, 40, 120, 120, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		ratio := float64(int(data[0])%201) / 200
		b := &tokenBudget{}
		m := &tokenBudgetModel{}
		for i := 1; i+2 < len(data); i += 3 {
			m.step(t, b, ratio, int(data[i]), float64(data[i+1]), int(data[i+2]))
		}
	})
}
