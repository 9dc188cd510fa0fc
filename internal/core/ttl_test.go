package core

import (
	"math"
	"testing"
	"testing/quick"

	"dnslb/internal/simcore"
)

func TestTTLVariantString(t *testing.T) {
	tests := []struct {
		v    TTLVariant
		want string
	}{
		{TTLVariant{Classes: OneClass}, "TTL/1"},
		{TTLVariant{Classes: TwoClasses}, "TTL/2"},
		{TTLVariant{Classes: PerDomain}, "TTL/K"},
		{TTLVariant{Classes: OneClass, ServerAware: true}, "TTL/S_1"},
		{TTLVariant{Classes: TwoClasses, ServerAware: true}, "TTL/S_2"},
		{TTLVariant{Classes: PerDomain, ServerAware: true}, "TTL/S_K"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestNewTTLPolicyValidation(t *testing.T) {
	if _, err := NewTTLPolicy(TTLVariant{Classes: OneClass}, 0); err == nil {
		t.Error("zero constant TTL should error")
	}
	if _, err := NewTTLPolicy(TTLVariant{Classes: ClassCount(0)}, 240); err == nil {
		t.Error("class count 0 should error")
	}
	if _, err := NewTTLPolicy(TTLVariant{Classes: ClassCount(-7)}, 240); err == nil {
		t.Error("negative class count (other than PerDomain) should error")
	}
	if _, err := NewTTLPolicy(TTLVariant{Classes: NClasses(9)}, 240); err != nil {
		t.Errorf("TTL/9 should be valid (meta-algorithm): %v", err)
	}
}

func TestConstantTTLIsConstant(t *testing.T) {
	st := zipfState(t, 20, 20)
	p, err := NewTTLPolicy(TTLVariant{Classes: OneClass}, 240)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 20; j++ {
		for i := 0; i < st.Snapshot().Cluster().N(); i++ {
			if got := p.TTL(st.Snapshot(), j, i); math.Abs(got-240) > 1e-9 {
				t.Fatalf("TTL/1(%d,%d) = %v, want 240", j, i, got)
			}
		}
	}
}

func TestTTLKPerDomainScaling(t *testing.T) {
	// Pure Zipf: TTL_j = j · TTL_min (relative weight γ_max/γ_j = j).
	st := zipfState(t, 20, 20)
	p, err := NewTTLPolicy(TTLVariant{Classes: PerDomain}, 240)
	if err != nil {
		t.Fatal(err)
	}
	base := p.recalibrate(st.Snapshot()).base
	for j := 0; j < 20; j++ {
		want := base * float64(j+1)
		if got := p.TTL(st.Snapshot(), j, 0); math.Abs(got-want) > 1e-6 {
			t.Errorf("TTL/K domain %d = %v, want %v", j, got, want)
		}
	}
	// Analytic calibration: base = 240·H_K/K.
	hk := 0.0
	for j := 1; j <= 20; j++ {
		hk += 1 / float64(j)
	}
	want := 240 * hk / 20
	if math.Abs(base-want) > 1e-9 {
		t.Errorf("calibrated base = %v, want 240·H_20/20 = %v", base, want)
	}
}

func TestTTL2TwoValues(t *testing.T) {
	st := zipfState(t, 20, 20)
	p, err := NewTTLPolicy(TTLVariant{Classes: TwoClasses}, 240)
	if err != nil {
		t.Fatal(err)
	}
	hotTTL := p.TTL(st.Snapshot(), 0, 0)
	for j := 0; j < 5; j++ {
		if got := p.TTL(st.Snapshot(), j, 0); math.Abs(got-hotTTL) > 1e-9 {
			t.Errorf("hot domain %d TTL = %v, want same as other hot %v", j, got, hotTTL)
		}
	}
	normalTTL := p.TTL(st.Snapshot(), 19, 0)
	for j := 5; j < 20; j++ {
		if got := p.TTL(st.Snapshot(), j, 0); math.Abs(got-normalTTL) > 1e-9 {
			t.Errorf("normal domain %d TTL = %v, want %v", j, got, normalTTL)
		}
	}
	if hotTTL >= normalTTL {
		t.Errorf("hot TTL %v should be lower than normal TTL %v", hotTTL, normalTTL)
	}
	// Paper observation: with default parameters the TTL/2 policies can
	// always assign TTLs of at least 80 seconds.
	if hotTTL < 80 {
		t.Errorf("hot-class TTL = %v, want >= 80 s as the paper reports", hotTTL)
	}
}

func TestTTLSKServerScaling(t *testing.T) {
	// TTL_ij = (γ_max/γ_j)·base·α_i·ρ: the slowest server's factor
	// α_N·ρ = 1, the fastest gets ρ.
	st := zipfState(t, 50, 20)
	p, err := NewTTLPolicy(TTLVariant{Classes: PerDomain, ServerAware: true}, 240)
	if err != nil {
		t.Fatal(err)
	}
	rho := st.Snapshot().Rho()
	n := st.Snapshot().Cluster().N()
	base := p.recalibrate(st.Snapshot()).base
	if got := p.TTL(st.Snapshot(), 0, n-1); math.Abs(got-base) > 1e-6 {
		t.Errorf("hottest domain on slowest server TTL = %v, want base %v", got, base)
	}
	if got := p.TTL(st.Snapshot(), 0, 0); math.Abs(got-base*rho) > 1e-6 {
		t.Errorf("hottest domain on fastest server TTL = %v, want base·ρ = %v", got, base*rho)
	}
	// TTLs across servers for one domain scale with capacity.
	for i := 0; i < n; i++ {
		want := base * st.Snapshot().Alpha(i) * rho
		if got := p.TTL(st.Snapshot(), 0, i); math.Abs(got-want) > 1e-6 {
			t.Errorf("server %d TTL = %v, want %v", i, got, want)
		}
	}
}

func TestTTLS1IgnoresDomain(t *testing.T) {
	st := zipfState(t, 20, 20)
	p, err := NewTTLPolicy(TTLVariant{Classes: OneClass, ServerAware: true}, 240)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < st.Snapshot().Cluster().N(); i++ {
		a := p.TTL(st.Snapshot(), 0, i)
		b := p.TTL(st.Snapshot(), 19, i)
		if math.Abs(a-b) > 1e-9 {
			t.Errorf("TTL/S_1 server %d: domain 0 TTL %v != domain 19 TTL %v", i, a, b)
		}
	}
}

// TestCalibrationEqualizesAddressRate is the paper's fairness
// condition: every variant's expected address-request rate (sum over
// domains of expected 1/TTL under uniform server assignment) must
// match the constant-TTL baseline K/240.
func TestCalibrationEqualizesAddressRate(t *testing.T) {
	variants := []TTLVariant{
		{Classes: OneClass},
		{Classes: TwoClasses},
		{Classes: PerDomain},
		{Classes: OneClass, ServerAware: true},
		{Classes: TwoClasses, ServerAware: true},
		{Classes: PerDomain, ServerAware: true},
	}
	for _, level := range []int{20, 35, 50, 65} {
		st := zipfState(t, level, 20)
		want := 20.0 / 240.0
		for _, v := range variants {
			p, err := NewTTLPolicy(v, 240)
			if err != nil {
				t.Fatal(err)
			}
			var rate float64
			n := st.Snapshot().Cluster().N()
			for j := 0; j < 20; j++ {
				for i := 0; i < n; i++ {
					rate += 1 / p.TTL(st.Snapshot(), j, i) / float64(n)
				}
			}
			if math.Abs(rate-want)/want > 0.01 {
				t.Errorf("het %d%% %s: address rate %v, want %v (±1%%)", level, v, rate, want)
			}
		}
	}
}

func TestCalibrationProperty(t *testing.T) {
	// For any weight vector, the calibrated TTL/K rate matches K/240.
	f := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 50 {
			raw = raw[:50]
		}
		w := make([]float64, len(raw))
		var sum float64
		for i, r := range raw {
			w[i] = float64(r%1000) + 1
			sum += w[i]
		}
		if sum == 0 {
			return true
		}
		c := MustCluster([]float64{100, 80, 50})
		st, err := NewState(c, len(w))
		if err != nil {
			return false
		}
		if err := st.SetWeights(w); err != nil {
			return false
		}
		p, err := NewTTLPolicy(TTLVariant{Classes: PerDomain}, 240)
		if err != nil {
			return false
		}
		var rate float64
		for j := range w {
			rate += 1 / p.TTL(st.Snapshot(), j, 0)
		}
		want := float64(len(w)) / 240
		return math.Abs(rate-want)/want < 0.02
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTTLRecalibratesOnWeightChange(t *testing.T) {
	st := zipfState(t, 20, 20)
	p, err := NewTTLPolicy(TTLVariant{Classes: PerDomain}, 240)
	if err != nil {
		t.Fatal(err)
	}
	before := p.TTL(st.Snapshot(), 10, 0)
	// Flip the skew: domain 19 becomes the most popular.
	w := simcore.ZipfWeights(20, 1)
	for i, j := 0, len(w)-1; i < j; i, j = i+1, j-1 {
		w[i], w[j] = w[j], w[i]
	}
	if err := st.SetWeights(w); err != nil {
		t.Fatal(err)
	}
	after := p.TTL(st.Snapshot(), 10, 0)
	if math.Abs(before-after) < 1e-9 {
		t.Error("TTL did not adapt to new weights")
	}
	if got := p.TTL(st.Snapshot(), 19, 0); math.Abs(got-p.recalibrate(st.Snapshot()).base) > 1e-6 {
		t.Errorf("new hottest domain TTL = %v, want base %v", got, p.recalibrate(st.Snapshot()).base)
	}
}

func TestTTLBoundsWithDegenerateWeights(t *testing.T) {
	c := MustCluster([]float64{100, 50})
	st, err := NewState(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	// One domain got essentially all traffic; another almost none.
	if err := st.SetWeights([]float64{1e9, 1, 1e-12}); err != nil {
		t.Fatal(err)
	}
	p, err := NewTTLPolicy(TTLVariant{Classes: PerDomain, ServerAware: true}, 240)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		for i := 0; i < 2; i++ {
			ttl := p.TTL(st.Snapshot(), j, i)
			if ttl < minAdaptiveTTL || ttl > maxTTL {
				t.Errorf("TTL(%d,%d) = %v out of [%v,%v]", j, i, ttl, minAdaptiveTTL, maxTTL)
			}
		}
	}
}

func TestClassCountString(t *testing.T) {
	if OneClass.String() != "TTL/1" || TwoClasses.String() != "TTL/2" || PerDomain.String() != "TTL/K" {
		t.Error("ClassCount strings wrong")
	}
	if ClassCount(42).String() == "" {
		t.Error("unknown ClassCount should stringify")
	}
}
