package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"dnslb/internal/simcore"
)

func TestClassCountValid(t *testing.T) {
	tests := []struct {
		c    ClassCount
		want bool
	}{
		{PerDomain, true}, {OneClass, true}, {TwoClasses, true},
		{NClasses(3), true}, {NClasses(100), true},
		{ClassCount(0), false}, {ClassCount(-2), false},
	}
	for _, tt := range tests {
		if got := tt.c.Valid(); got != tt.want {
			t.Errorf("Valid(%d) = %v, want %v", int(tt.c), got, tt.want)
		}
	}
}

func TestClassCountStringGeneral(t *testing.T) {
	if got := NClasses(3).String(); got != "TTL/3" {
		t.Errorf("String = %q, want TTL/3", got)
	}
	if got := (TTLVariant{Classes: NClasses(5), ServerAware: true}).String(); got != "TTL/S_5" {
		t.Errorf("String = %q, want TTL/S_5", got)
	}
	if got := ClassCount(-3).String(); got != "ClassCount(-3)" {
		t.Errorf("String = %q", got)
	}
}

func TestDomainFactorsOneTwoK(t *testing.T) {
	st := zipfState(t, 20, 20)
	one := DomainFactors(st.Snapshot(), OneClass)
	for j, f := range one {
		if f != 1 {
			t.Errorf("TTL/1 factor[%d] = %v, want 1", j, f)
		}
	}
	two := DomainFactors(st.Snapshot(), TwoClasses)
	// Hot domains (0..4) share one factor 1; normal domains share a
	// smaller factor.
	for j := 0; j < 5; j++ {
		if math.Abs(two[j]-1) > 1e-12 {
			t.Errorf("TTL/2 hot factor[%d] = %v, want 1", j, two[j])
		}
	}
	for j := 6; j < 20; j++ {
		if two[j] != two[5] {
			t.Errorf("TTL/2 normal factors differ: %v vs %v", two[j], two[5])
		}
	}
	if two[5] >= 1 {
		t.Errorf("normal factor = %v, want < 1", two[5])
	}
	k := DomainFactors(st.Snapshot(), PerDomain)
	for j := range k {
		want := 1 / float64(j+1)
		if math.Abs(k[j]-want) > 1e-9 {
			t.Errorf("TTL/K factor[%d] = %v, want %v", j, k[j], want)
		}
	}
}

func TestDomainFactorsIntermediate(t *testing.T) {
	st := zipfState(t, 20, 20)
	for _, i := range []int{3, 4, 5, 7, 10} {
		f := DomainFactors(st.Snapshot(), NClasses(i))
		// Factors are grouped: at most i distinct values, and the top
		// group has factor 1.
		distinct := make(map[float64]bool)
		for _, v := range f {
			if v <= 0 || v > 1+1e-12 {
				t.Fatalf("i=%d: factor %v out of (0,1]", i, v)
			}
			distinct[v] = true
		}
		if len(distinct) > i {
			t.Errorf("i=%d: %d distinct factors, want at most %d", i, len(distinct), i)
		}
		if len(distinct) < 2 {
			t.Errorf("i=%d: factors are degenerate (%d distinct)", i, len(distinct))
		}
		if math.Abs(f[0]-1) > 1e-12 {
			t.Errorf("i=%d: hottest factor = %v, want 1", i, f[0])
		}
		// Monotone: a hotter domain never has a smaller factor.
		for j := 1; j < len(f); j++ {
			if f[j] > f[j-1]+1e-12 {
				t.Errorf("i=%d: factor increased from domain %d to %d", i, j-1, j)
			}
		}
	}
}

func TestDomainFactorsIAtLeastKIsPerDomain(t *testing.T) {
	st := zipfState(t, 20, 20)
	perDomain := DomainFactors(st.Snapshot(), PerDomain)
	for _, i := range []int{20, 25, 1000} {
		got := DomainFactors(st.Snapshot(), NClasses(i))
		for j := range got {
			if math.Abs(got[j]-perDomain[j]) > 1e-12 {
				t.Errorf("i=%d: factor[%d] = %v, want per-domain %v", i, j, got[j], perDomain[j])
			}
		}
	}
}

func TestEqualLoadPartitionBalance(t *testing.T) {
	st := zipfState(t, 20, 20)
	means := equalLoadPartition(st.Snapshot(), 4)
	// Sum of class totals = 1; reconstruct class totals from means.
	classTotal := make(map[float64]float64)
	classSize := make(map[float64]int)
	for j, m := range means {
		classTotal[m] += st.Snapshot().Weight(j)
		classSize[m]++
	}
	var sum float64
	for _, v := range classTotal {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("class totals sum to %v", sum)
	}
	if len(classTotal) != 4 {
		t.Fatalf("partition produced %d classes, want 4", len(classTotal))
	}
	// Equal-load goal: every class carries a comparable share (within
	// a factor bounded by the largest single weight, 0.278).
	for m, v := range classTotal {
		if v < 0.10 || v > 0.45 {
			t.Errorf("class with mean %v carries %v of load, want near 0.25", m, v)
		}
	}
}

func TestEqualLoadPartitionProperty(t *testing.T) {
	f := func(kRaw, nRaw uint8, seed uint16) bool {
		k := int(kRaw%40) + 2
		n := int(nRaw%uint8(k)) + 1
		c := MustCluster([]float64{100, 80})
		st, err := NewState(c, k)
		if err != nil {
			return false
		}
		// Random positive weights.
		stream := simcore.NewStream(uint64(seed), "partition")
		w := make([]float64, k)
		for j := range w {
			w[j] = stream.Float64() + 0.01
		}
		if err := st.SetWeights(w); err != nil {
			return false
		}
		means := equalLoadPartition(st.Snapshot(), n)
		// Every domain belongs to a class; class count <= n; means positive.
		distinct := make(map[float64]bool)
		for _, m := range means {
			if m <= 0 {
				return false
			}
			distinct[m] = true
		}
		return len(distinct) <= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTTLiCalibrationHolds(t *testing.T) {
	// The fairness condition must hold for intermediate class counts
	// too, including server-aware ones.
	st := zipfState(t, 35, 20)
	want := 20.0 / 240.0
	for _, i := range []int{3, 4, 5, 10} {
		for _, server := range []bool{false, true} {
			v := TTLVariant{Classes: NClasses(i), ServerAware: server}
			p, err := NewTTLPolicy(v, 240)
			if err != nil {
				t.Fatal(err)
			}
			var rate float64
			n := st.Snapshot().Cluster().N()
			for j := 0; j < 20; j++ {
				for s := 0; s < n; s++ {
					rate += 1 / p.TTL(st.Snapshot(), j, s) / float64(n)
				}
			}
			if math.Abs(rate-want)/want > 0.01 {
				t.Errorf("%s: address rate %v, want %v", v, rate, want)
			}
		}
	}
}

func TestTTLiMonotoneInformationGain(t *testing.T) {
	// More classes = finer discrimination: the spread of TTLs must be
	// non-decreasing in i (TTL/1 has zero spread, TTL/K the most).
	st := zipfState(t, 20, 20)
	prevSpread := -1.0
	for _, c := range []ClassCount{OneClass, TwoClasses, NClasses(4), NClasses(8), PerDomain} {
		p, err := NewTTLPolicy(TTLVariant{Classes: c}, 240)
		if err != nil {
			t.Fatal(err)
		}
		min, max := math.Inf(1), math.Inf(-1)
		for j := 0; j < 20; j++ {
			ttl := p.TTL(st.Snapshot(), j, 0)
			if ttl < min {
				min = ttl
			}
			if ttl > max {
				max = ttl
			}
		}
		spread := max / min
		if spread < prevSpread-1e-9 {
			t.Errorf("%v: TTL spread %v decreased from %v", c, spread, prevSpread)
		}
		prevSpread = spread
	}
}

func TestParsePolicyNames(t *testing.T) {
	st := zipfState(t, 20, 20)
	rng := simcore.NewStream(2, "parse")
	valid := []string{
		"PRR-TTL/3", "PRR2-TTL/4", "PRR2-TTL/10",
		"DRR-TTL/S_3", "DRR2-TTL/S_5",
		"PRR2-TTL/S_K", // extension combination
		"DRR2-TTL/3",   // deterministic with domain-only TTL
	}
	for _, name := range valid {
		p, err := NewPolicy(PolicyConfig{Name: name, State: st, Rand: rng})
		if err != nil {
			t.Errorf("NewPolicy(%q): %v", name, err)
			continue
		}
		if _, err := p.Schedule(0); err != nil {
			t.Errorf("%s: schedule: %v", name, err)
		}
	}
	invalid := []string{
		"XRR-TTL/3", "PRR-TTL/", "PRR-TTL/0", "PRR-TTL/-2",
		"PRR-TTL/x", "TTL/3", "PRR2-", "PRR2-TTL/S_",
	}
	for _, name := range invalid {
		if _, err := NewPolicy(PolicyConfig{Name: name, State: st, Rand: rng}); err == nil {
			t.Errorf("NewPolicy(%q) should fail", name)
		}
	}
}

func TestParsedNamesMatchCatalogSpecs(t *testing.T) {
	// "DRR2-TTL/S_2" exists in the catalog and must parse identically.
	cat := policyCatalog["DRR2-TTL/S_2"]
	parsed, ok := parsePolicyName("DRR2-TTL/S_2")
	if !ok || parsed != cat {
		t.Errorf("parsed %+v, catalog %+v", parsed, cat)
	}
	cat = policyCatalog["PRR-TTL/K"]
	parsed, ok = parsePolicyName("PRR-TTL/K")
	if !ok || parsed != cat {
		t.Errorf("parsed %+v, catalog %+v", parsed, cat)
	}
}

func TestMRLSelector(t *testing.T) {
	st := zipfState(t, 50, 20)
	now := 0.0
	sel := NewMRL(func() float64 { return now }, 240)
	// Consecutive hot-domain requests spread like DAL.
	a := sel.Select(st.Snapshot(), 0)
	b := sel.Select(st.Snapshot(), 0)
	if a == b {
		t.Error("MRL funnelled consecutive hot requests to one server")
	}
	// Residual load decays: after half the TTL, the remaining charge is
	// half, so a lightly loaded server becomes attractive again sooner
	// than under DAL.
	now = 120
	counts := make(map[int]bool)
	for i := 0; i < 7; i++ {
		counts[sel.Select(st.Snapshot(), 0)] = true
	}
	if len(counts) < 4 {
		t.Errorf("MRL used only %d distinct servers", len(counts))
	}
	// Alarmed servers are skipped.
	st.SetAlarm(3, true)
	for i := 0; i < 50; i++ {
		if got := sel.Select(st.Snapshot(), i%20); got == 3 {
			t.Fatal("MRL selected alarmed server")
		}
	}
	st.SetAlarm(3, false)
}

func TestMRLPolicyRuns(t *testing.T) {
	st := zipfState(t, 35, 20)
	now := 0.0
	p, err := NewPolicy(PolicyConfig{
		Name:  "MRL",
		State: st,
		Now:   func() float64 { now += 1; return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		d, err := p.Schedule(i % 20)
		if err != nil {
			t.Fatal(err)
		}
		if d.TTL != DefaultConstantTTL {
			t.Fatalf("MRL TTL = %v, want constant", d.TTL)
		}
	}
	if _, err := NewPolicy(PolicyConfig{Name: "MRL", State: st}); err == nil {
		t.Error("MRL without Now should error")
	}
}

func TestTTLiEndToEndNames(t *testing.T) {
	// The full name grid compiles into runnable policies.
	st := zipfState(t, 20, 20)
	rng := simcore.NewStream(5, "grid")
	for _, sel := range []string{"PRR", "PRR2", "DRR", "DRR2"} {
		for _, suffix := range []string{"1", "2", "3", "5", "K", "S_1", "S_2", "S_3", "S_K"} {
			name := fmt.Sprintf("%s-TTL/%s", sel, suffix)
			p, err := NewPolicy(PolicyConfig{Name: name, State: st, Rand: rng})
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			if _, err := p.Schedule(3); err != nil {
				t.Errorf("%s schedule: %v", name, err)
			}
		}
	}
}

func TestWRRSmoothProportionalRotation(t *testing.T) {
	// Two servers at weights 1 and 0.5: over any 3 picks WRR selects
	// the heavy server twice, and never three times in a row.
	c := MustCluster([]float64{100, 50})
	st, err := NewState(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	sel := NewWRR()
	counts := make([]int, 2)
	streak := 0
	for i := 0; i < 300; i++ {
		got := sel.Select(st.Snapshot(), 0)
		counts[got]++
		if got == 0 {
			streak++
			if streak > 2 {
				t.Fatal("smooth WRR burst: server 0 picked 3 times in a row")
			}
		} else {
			streak = 0
		}
	}
	if counts[0] != 200 || counts[1] != 100 {
		t.Errorf("counts = %v, want exact 2:1 proportion", counts)
	}
}

func TestWRRCapacityShares(t *testing.T) {
	st := zipfState(t, 50, 20)
	sel := NewWRR()
	n := st.Snapshot().Cluster().N()
	counts := make([]float64, n)
	const picks = 62000
	for i := 0; i < picks; i++ {
		counts[sel.Select(st.Snapshot(), i%20)]++
	}
	var alphaSum float64
	for i := 0; i < n; i++ {
		alphaSum += st.Snapshot().Alpha(i)
	}
	for i := 0; i < n; i++ {
		got := counts[i] / picks
		want := st.Snapshot().Alpha(i) / alphaSum
		if math.Abs(got-want) > 0.005 {
			t.Errorf("server %d share = %.4f, want %.4f", i, got, want)
		}
	}
}

func TestWRRRespectsAlarms(t *testing.T) {
	st := zipfState(t, 50, 20)
	sel := NewWRR()
	st.SetAlarm(0, true)
	for i := 0; i < 100; i++ {
		if got := sel.Select(st.Snapshot(), i%20); got == 0 {
			t.Fatal("WRR selected alarmed server")
		}
	}
	st.SetAlarm(0, false)
	seen := false
	for i := 0; i < 20; i++ {
		if sel.Select(st.Snapshot(), 0) == 0 {
			seen = true
		}
	}
	if !seen {
		t.Error("server 0 never selected after alarm cleared")
	}
}

func TestWRRPolicyInCatalog(t *testing.T) {
	st := zipfState(t, 35, 20)
	p, err := NewPolicy(PolicyConfig{Name: "WRR", State: st})
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Schedule(0)
	if err != nil {
		t.Fatal(err)
	}
	if d.TTL != DefaultConstantTTL {
		t.Errorf("WRR TTL = %v, want constant", d.TTL)
	}
}
