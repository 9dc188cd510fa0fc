package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"dnslb/internal/sim"
)

// The reproduction validator: every qualitative claim the paper makes
// about its results, expressed as an executable check. `dnslb-bench
// -exp verify` runs them all and reports PASS/FAIL per claim, so "does
// this reproduction still hold?" is one command, not a reading
// exercise against EXPERIMENTS.md.

// Claim is one verifiable statement from the paper's evaluation: the
// runs it reads and a judgement over the values read.
type Claim struct {
	ID        string
	Statement string
	Reads     []Read
	// Judge decides the claim from the values of Reads, in order, and
	// reports what it measured either way.
	Judge func(v []float64) (ok bool, detail string)
}

// Read is one value a claim reads: Of applied to a run of Policy at
// the Table 1 defaults (the uniform workload for Ideal), changed by
// Set when it is non-nil.
type Read struct {
	Policy string
	Set    func(*sim.Config)
	Of     func(*sim.Result) float64
}

// probMaxUnder reads Prob(MaxUtil < level).
func probMaxUnder(level float64) func(*sim.Result) float64 {
	return func(r *sim.Result) float64 { return r.ProbMaxUnder(level) }
}

// meanUtil reads the mean of the servers' mean utilizations.
func meanUtil(r *sim.Result) float64 {
	var mean float64
	for _, u := range r.MeanServerUtil {
		mean += u
	}
	return mean / float64(len(r.MeanServerUtil))
}

// het sets the heterogeneity level to pct %.
func het(pct int) func(*sim.Config) {
	return func(cfg *sim.Config) { cfg.HeterogeneityPct = pct }
}

// Claims returns the full validator suite in paper order.
func Claims() []Claim {
	p90, p98 := probMaxUnder(0.9), probMaxUnder(0.98)
	hiMinTTL := func(cfg *sim.Config) { cfg.HeterogeneityPct, cfg.MinNSTTL = 50, 120 }
	withErr := func(cfg *sim.Config) { cfg.HeterogeneityPct, cfg.Workload.PerturbationPct = 50, 30 }
	return []Claim{
		{"C1-adaptive-beats-rr", "DRR2-TTL/S_K keeps every server under 90% far more often than RR (paper: 0.94 vs 0.1)",
			[]Read{{"DRR2-TTL/S_K", nil, p90}, {"RR", nil, p90}},
			func(v []float64) (bool, string) {
				return v[0]-v[1] >= 0.5, fmt.Sprintf("DRR2-TTL/S_K %.3f vs RR %.3f", v[0], v[1])
			}},
		{"C2-envelope", "DRR2-TTL/S_K lies close to the Ideal envelope (Figure 1)",
			[]Read{{"Ideal", nil, p90}, {"DRR2-TTL/S_K", nil, p90}},
			func(v []float64) (bool, string) {
				return math.Abs(v[0]-v[1]) <= 0.12, fmt.Sprintf("Ideal %.3f vs DRR2-TTL/S_K %.3f", v[0], v[1])
			}},
		{"C3-server-only-insufficient", "server-capacity-only TTLs (TTL/S_1) barely improve on RR (paper: still < 0.15)",
			[]Read{{"DRR2-TTL/S_1", nil, p90}},
			func(v []float64) (bool, string) { return v[0] < 0.3, fmt.Sprintf("DRR2-TTL/S_1 %.3f", v[0]) }},
		{"C4-class-ordering", "finer domain classes help: PRR2 TTL/K ≥ TTL/2 ≥ TTL/1 (Figure 2, het 35%)",
			[]Read{{"PRR2-TTL/K", het(35), p90}, {"PRR2-TTL/2", het(35), p90}, {"PRR2-TTL/1", het(35), p90}},
			func(v []float64) (bool, string) {
				k, two, one := v[0], v[1], v[2]
				return k >= two-0.02 && two >= one+0.1, fmt.Sprintf("K %.3f, 2 %.3f, 1 %.3f", k, two, one)
			}},
		{"C5-heterogeneity-stability", "TTL/S_K stays effective even at 65% heterogeneity (Figure 3)",
			[]Read{{"DRR2-TTL/S_K", het(65), p98}},
			func(v []float64) (bool, string) {
				return v[0] >= 0.85, fmt.Sprintf("P(maxU<0.98) at het 65%% = %.3f", v[0])
			}},
		{"C6-dal-does-not-transfer", "DAL (homogeneous-system policy) stays far below the adaptive TTL schemes (Figure 3)",
			[]Read{{"DAL", het(35), p98}, {"DRR2-TTL/S_K", het(35), p98}},
			func(v []float64) (bool, string) {
				return v[0] <= v[1]-0.3, fmt.Sprintf("DAL %.3f vs DRR2-TTL/S_K %.3f", v[0], v[1])
			}},
		{"C7-ttl2-mintl-insensitive", "PRR2-TTL/2 is insensitive to NS minimum TTLs up to ~60 s (Figures 4-5: its TTLs are ≥ 80 s)",
			[]Read{{"PRR2-TTL/2", nil, p98}, {"PRR2-TTL/2", func(cfg *sim.Config) { cfg.MinNSTTL = 60 }, p98}},
			func(v []float64) (bool, string) {
				return math.Abs(v[0]-v[1]) <= 0.08, fmt.Sprintf("min TTL 0 → %.3f, 60 s → %.3f", v[0], v[1])
			}},
		{"C8-mintl-crossover", "at 50% heterogeneity and high minimum TTL, domain-only schemes overtake DRR2-TTL/S_K (Figure 5)",
			[]Read{{"PRR2-TTL/K", hiMinTTL, p98}, {"DRR2-TTL/S_K", hiMinTTL, p98}},
			func(v []float64) (bool, string) {
				return v[0] >= v[1]-0.02, fmt.Sprintf("PRR2-TTL/K %.3f vs DRR2-TTL/S_K %.3f", v[0], v[1])
			}},
		{"C9-error-robustness", "under 30% estimation error at 50% heterogeneity, K-class schemes stay far above 2-class schemes (Figure 7)",
			[]Read{{"DRR2-TTL/S_K", withErr, p98}, {"DRR2-TTL/S_2", withErr, p98}},
			func(v []float64) (bool, string) {
				return v[0] >= v[1]+0.2, fmt.Sprintf("TTL/S_K %.3f vs TTL/S_2 %.3f", v[0], v[1])
			}},
		{"C10-limited-control", "the DNS directly controls only a small fraction of the requests (paper: often below 4%)",
			[]Read{{"DRR2-TTL/S_K", nil, (*sim.Result).ControlledFraction}},
			func(v []float64) (bool, string) {
				return v[0] > 0 && v[0] < 0.04, fmt.Sprintf("controlled fraction %.4f", v[0])
			}},
		{"C11-operating-point", "the modelled system runs at the paper's 2/3 average utilization",
			[]Read{{"RR", nil, meanUtil}},
			func(v []float64) (bool, string) {
				return math.Abs(v[0]-2.0/3) <= 0.05, fmt.Sprintf("mean utilization %.3f", v[0])
			}},
		{"C12-calibrated-address-rate", "adaptive TTL policies are calibrated to the constant-TTL address-request rate (paper's fairness condition)",
			[]Read{{"DRR2-TTL/S_K", nil, (*sim.Result).AddressRate}, {"RR", nil, (*sim.Result).AddressRate}},
			func(v []float64) (bool, string) {
				ratio := v[0] / v[1]
				return ratio >= 0.7 && ratio <= 1.4, fmt.Sprintf("address-rate ratio %.3f", ratio)
			}},
	}
}

// runTable builds every read's configuration under o and lists the
// distinct ones in first-read order: claim c's k-th read runs
// cfgs[rows[c][k]], and owner[i] is the first claim that reads cfgs[i].
func runTable(claims []Claim, o Options) (cfgs []sim.Config, owner []string, rows [][]int, err error) {
	index := make(map[string]int)
	rows = make([][]int, len(claims))
	for c, cl := range claims {
		for _, r := range cl.Reads {
			cfg := sim.DefaultConfig(r.Policy)
			cfg.Workload.Uniform = r.Policy == "Ideal"
			if r.Set != nil {
				r.Set(&cfg)
			}
			applyOptions(&cfg, o)
			key, err := json.Marshal(cfg)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("%s: %w", cl.ID, err)
			}
			i, ok := index[string(key)]
			if !ok {
				i = len(cfgs)
				index[string(key)] = i
				cfgs = append(cfgs, cfg)
				owner = append(owner, cl.ID)
			}
			rows[c] = append(rows[c], i)
		}
	}
	return cfgs, owner, rows, nil
}

// Verify simulates each distinct configuration the claims read once,
// across o.Workers, then judges every claim in paper order and writes
// a PASS/FAIL report. It returns the number of failed claims.
func Verify(o Options, w io.Writer) (int, error) {
	if err := o.validate(); err != nil {
		return 0, err
	}
	claims := Claims()
	cfgs, owner, rows, err := runTable(claims, o)
	if err != nil {
		return 0, err
	}
	results := make([]*sim.Result, len(cfgs))
	err = forEachLimit(len(cfgs), o.Workers, func(i int) (err error) {
		if results[i], err = sim.Run(cfgs[i]); err != nil {
			return fmt.Errorf("%s: %w", owner[i], err)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var report strings.Builder
	failed := 0
	for c, cl := range claims {
		v := make([]float64, len(cl.Reads))
		for k, r := range cl.Reads {
			v[k] = r.Of(results[rows[c][k]])
		}
		ok, detail := cl.Judge(v)
		status := "PASS"
		if !ok {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(&report, "%s  %-28s %s\n      measured: %s\n", status, cl.ID, cl.Statement, detail)
	}
	fmt.Fprintf(&report, "\n%d/%d claims hold\n", len(claims)-failed, len(claims))
	_, err = io.WriteString(w, report.String())
	return failed, err
}
