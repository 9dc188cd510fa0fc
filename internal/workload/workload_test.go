package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero domains", func(c *Config) { c.Domains = 0 }},
		{"zero clients", func(c *Config) { c.Clients = 0 }},
		{"fewer clients than domains", func(c *Config) { c.Clients = 10; c.Domains = 20 }},
		{"negative theta", func(c *Config) { c.ZipfTheta = -1 }},
		{"zero think", func(c *Config) { c.MeanThinkTime = 0 }},
		{"pages < 1", func(c *Config) { c.PagesPerSession = 0.5 }},
		{"zero hits min", func(c *Config) { c.HitsMin = 0 }},
		{"hits max < min", func(c *Config) { c.HitsMax = 4 }},
		{"negative perturbation", func(c *Config) { c.PerturbationPct = -1 }},
		{"NaN theta", func(c *Config) { c.ZipfTheta = math.NaN() }},
		{"NaN think", func(c *Config) { c.MeanThinkTime = math.NaN() }},
		{"infinite think", func(c *Config) { c.MeanThinkTime = math.Inf(1) }},
		{"NaN pages", func(c *Config) { c.PagesPerSession = math.NaN() }},
		{"NaN perturbation", func(c *Config) { c.PerturbationPct = math.NaN() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := Default()
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestSharesZipf(t *testing.T) {
	c := Default()
	s := c.Shares()
	if len(s) != 20 {
		t.Fatalf("len = %d", len(s))
	}
	// Pure Zipf: share_0 / share_j = j+1.
	for j := range s {
		if math.Abs(s[0]/s[j]-float64(j+1)) > 1e-9 {
			t.Errorf("share ratio at %d wrong", j)
		}
	}
	// The paper's motivating skew: a large majority of the requests
	// come from a small fraction of the domains.
	var top25 float64
	for j := 0; j < 5; j++ {
		top25 += s[j]
	}
	if top25 < 0.6 {
		t.Errorf("top 25%% of domains carry %v of load, want strong skew", top25)
	}
}

func TestSharesUniform(t *testing.T) {
	c := Default()
	c.Uniform = true
	for _, s := range c.Shares() {
		if math.Abs(s-0.05) > 1e-12 {
			t.Errorf("uniform share = %v, want 0.05", s)
		}
	}
}

func TestPartitionSumsAndFloors(t *testing.T) {
	c := Default()
	counts := c.Partition()
	sum := 0
	for j, n := range counts {
		if n < 1 {
			t.Errorf("domain %d has %d clients, want >= 1", j, n)
		}
		sum += n
	}
	if sum != c.Clients {
		t.Errorf("partition sums to %d, want %d", sum, c.Clients)
	}
	// The hottest domain holds the most clients.
	for j := 1; j < len(counts); j++ {
		if counts[j] > counts[0] {
			t.Errorf("domain %d (%d) exceeds domain 0 (%d)", j, counts[j], counts[0])
		}
	}
}

func TestPartitionProperty(t *testing.T) {
	f := func(kRaw, clientsRaw uint16, uniform bool) bool {
		k := int(kRaw%100) + 1
		clients := k + int(clientsRaw%2000)
		c := Default()
		c.Domains = k
		c.Clients = clients
		c.Uniform = uniform
		counts := c.Partition()
		sum := 0
		for _, n := range counts {
			if n < 1 {
				return false
			}
			sum += n
		}
		return sum == clients
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNominalRatesMatchPaperLoad(t *testing.T) {
	// 500 clients × 10 hits / 15 s ≈ 333 hits/s, i.e. 2/3 of the 500
	// hits/s total capacity — the paper's average utilization.
	c := Default()
	rates := c.NominalRates()
	var sum float64
	for _, r := range rates {
		sum += r
	}
	if math.Abs(sum-1000.0/3) > 1e-9 {
		t.Errorf("per-domain rates sum to %v, want 333.33", sum)
	}
	if got := c.MeanHitsPerPage(); got != 10 {
		t.Errorf("MeanHitsPerPage = %v, want 10", got)
	}
}

func TestPerturb(t *testing.T) {
	rates := []float64{100, 50, 50}
	out := Perturb(rates, 10)
	if rates[0] != 100 {
		t.Error("Perturb must not modify its input")
	}
	if math.Abs(out[0]-110) > 1e-9 {
		t.Errorf("busiest rate = %v, want 110", out[0])
	}
	var sum float64
	for _, r := range out {
		sum += r
	}
	if math.Abs(sum-200) > 1e-9 {
		t.Errorf("total rate = %v, want constant 200", sum)
	}
	// Others shrink proportionally: 45 each.
	if math.Abs(out[1]-45) > 1e-9 || math.Abs(out[2]-45) > 1e-9 {
		t.Errorf("other rates = %v, want 45 each", out[1:])
	}
}

func TestPerturbEdgeCases(t *testing.T) {
	// Zero error: unchanged.
	out := Perturb([]float64{10, 20}, 0)
	if out[0] != 10 || out[1] != 20 {
		t.Errorf("zero perturbation changed rates: %v", out)
	}
	// Single domain: unchanged.
	out = Perturb([]float64{10}, 50)
	if out[0] != 10 {
		t.Errorf("single-domain perturbation changed rate: %v", out)
	}
	// Huge error: capped at the total, others go to zero.
	out = Perturb([]float64{90, 10}, 1000)
	if math.Abs(out[0]-100) > 1e-9 || math.Abs(out[1]) > 1e-9 {
		t.Errorf("capped perturbation = %v, want [100 0]", out)
	}
}

func TestPerturbKeepsTotalProperty(t *testing.T) {
	f := func(raw []uint16, errRaw uint8) bool {
		if len(raw) < 2 {
			return true
		}
		rates := make([]float64, len(raw))
		var total float64
		for i, r := range raw {
			rates[i] = float64(r%1000) + 1
			total += rates[i]
		}
		out := Perturb(rates, float64(errRaw%100))
		var sum float64
		for _, r := range out {
			if r < -1e-9 {
				return false
			}
			sum += r
		}
		return math.Abs(sum-total)/total < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestActualRatesWithPerturbation(t *testing.T) {
	c := Default()
	c.PerturbationPct = 30
	nominal := c.NominalRates()
	actual := c.ActualRates()
	if actual[0] <= nominal[0] {
		t.Errorf("busiest domain rate %v should exceed nominal %v", actual[0], nominal[0])
	}
	if math.Abs(actual[0]-nominal[0]*1.3) > 1e-9 {
		t.Errorf("busiest domain rate = %v, want %v", actual[0], nominal[0]*1.3)
	}
	var sumN, sumA float64
	for j := range nominal {
		sumN += nominal[j]
		sumA += actual[j]
	}
	if math.Abs(sumN-sumA) > 1e-9 {
		t.Errorf("perturbation changed total rate: %v vs %v", sumA, sumN)
	}
}

func TestThinkTimes(t *testing.T) {
	c := Default()
	thinks := c.ThinkTimes()
	// Without perturbation every domain's think time is the configured
	// mean (up to partition rounding).
	counts := c.Partition()
	rates := c.NominalRates()
	for j, th := range thinks {
		want := float64(counts[j]) * c.MeanHitsPerPage() / rates[j]
		if math.Abs(th-want) > 1e-9 {
			t.Errorf("think[%d] = %v, want %v", j, th, want)
		}
		if math.Abs(th-15) > 1e-9 {
			t.Errorf("unperturbed think[%d] = %v, want 15", j, th)
		}
	}
	// With perturbation the busiest domain thinks faster.
	c.PerturbationPct = 20
	thinks = c.ThinkTimes()
	if thinks[0] >= 15 {
		t.Errorf("perturbed busiest think = %v, want < 15", thinks[0])
	}
	if thinks[5] <= 15 {
		t.Errorf("perturbed normal think = %v, want > 15", thinks[5])
	}
}

func TestOracleWeights(t *testing.T) {
	c := Default()
	c.PerturbationPct = 50
	w := c.OracleWeights()
	var sum float64
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("oracle weights sum to %v", sum)
	}
	// Oracle weights ignore the perturbation (that is the point of the
	// estimation-error experiment).
	c2 := Default()
	w2 := c2.OracleWeights()
	for j := range w {
		if math.Abs(w[j]-w2[j]) > 1e-12 {
			t.Errorf("oracle weight %d differs under perturbation: %v vs %v", j, w[j], w2[j])
		}
	}
}
