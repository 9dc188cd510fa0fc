package experiments

import (
	"fmt"
	"sort"
	"strings"

	"dnslb/internal/core"
	"dnslb/internal/sim"
	"dnslb/internal/stats"
)

// The metric level of Figures 3–7: Prob(MaxUtilization < 0.98),
// the paper's 98th-percentile view of the maximum utilization.
const metricLevel = 0.98

// cdfFigure runs one cumulative-frequency figure (Figures 1 and 2):
// one curve per policy at a fixed heterogeneity level.
func cdfFigure(id, title string, hetPct int, policies []string, o Options) (*Figure, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	levels := utilizationLevels()
	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "Max Utilization",
		YLabel: "Cumulative Frequency",
		XVals:  levels,
	}
	fig.Series = make([]Series, len(policies))
	err := forEachLimit(len(policies), o.Workers, func(p int) error {
		pol := policies[p]
		cfg := sim.DefaultConfig(pol)
		cfg.HeterogeneityPct = hetPct
		if pol == "Ideal" {
			cfg.Workload.Uniform = true
		}
		values, err := runCurve(cfg, o, levels)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", id, pol, err)
		}
		fig.Series[p] = Series{Name: pol, Values: values}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// Figure1 reproduces "Deterministic algorithms (Het. 20%)": the
// cumulative frequency of the maximum server utilization for the
// RR-based deterministic adaptive-TTL policies, bracketed by the Ideal
// envelope above and conventional RR below.
func Figure1(o Options) (*Figure, error) {
	return cdfFigure("fig1", "Deterministic algorithms (Het. 20%)", 20,
		[]string{
			"Ideal",
			"DRR2-TTL/S_K", "DRR-TTL/S_K",
			"DRR2-TTL/S_2", "DRR-TTL/S_2",
			"DRR2-TTL/S_1", "DRR-TTL/S_1",
			"RR",
		}, o)
}

// Figure2 reproduces "Probabilistic algorithms (Het. 35%)": the same
// metric for the PRR-based policies whose TTL depends on the domain
// only.
func Figure2(o Options) (*Figure, error) {
	return cdfFigure("fig2", "Probabilistic algorithms (Het. 35%)", 35,
		[]string{
			"Ideal",
			"PRR2-TTL/K", "PRR-TTL/K",
			"PRR2-TTL/2", "PRR-TTL/2",
			"PRR2-TTL/1", "PRR-TTL/1",
			"RR",
		}, o)
}

// A sweep declares one figure whose x axis is a configuration: its
// labels, its x values, its lines, and the readings taken off each
// point's replications.
type sweep struct {
	id, title, xlabel string
	ylabel            string // empty: Prob(MaxUtilization < 0.98)
	xs                []float64
	lines             []line
	reads             []reading // nil: one Prob(MaxUtil < 0.98) series per line
}

// A line is one configuration family of a sweep: set turns a config
// that carries the options (duration, warm-up, seed) into the run at
// x, so it may place events relative to cfg.Warmup and cfg.Duration.
type line struct {
	name string
	set  func(cfg *sim.Config, x float64)
}

// A reading turns every replication of a point into one observation;
// the point's value is their mean with a 95% confidence half-width.
// Its series is named after the line, then the reading.
type reading struct {
	name string
	of   func(cfg *sim.Config, r *sim.Result) (float64, error)
}

// maxUtilUnder reads the paper's metric, Prob(MaxUtil < 0.98).
func maxUtilUnder(_ *sim.Config, r *sim.Result) (float64, error) {
	return r.ProbMaxUnder(metricLevel), nil
}

// policyLines declares one line per policy, each configured at x by
// set; "Ideal" runs on the uniform workload that defines it.
func policyLines(set func(cfg *sim.Config, x float64), policies ...string) []line {
	lines := make([]line, len(policies))
	for i, pol := range policies {
		lines[i] = line{name: pol, set: func(cfg *sim.Config, x float64) {
			cfg.Policy = pol
			cfg.Workload.Uniform = pol == "Ideal"
			set(cfg, x)
		}}
	}
	return lines
}

// run simulates every (line, x) point once, o.Reps replications each,
// and fills one series per (reading, line), reading-major: several
// readings share a point's runs, so no simulation runs twice.
func (s sweep) run(o Options) (*Figure, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	fig := &Figure{ID: s.id, Title: s.title, XLabel: s.xlabel, YLabel: s.ylabel, XVals: s.xs}
	if fig.YLabel == "" {
		fig.YLabel = "Prob(MaxUtilization < 0.98)"
	}
	reads := s.reads
	if reads == nil {
		reads = []reading{{of: maxUtilUnder}}
	}
	for _, rd := range reads {
		for _, l := range s.lines {
			fig.Series = append(fig.Series, Series{
				Name:       strings.TrimSpace(l.name + " " + rd.name),
				Values:     make([]float64, len(s.xs)),
				HalfWidths: make([]float64, len(s.xs)),
			})
		}
	}
	// Fan the independent points across the worker budget; each point
	// writes only its own slots, so assembly order is deterministic
	// regardless of completion order.
	err := forEachLimit(len(s.lines)*len(s.xs), o.Workers, func(u int) error {
		l, i := u/len(s.xs), u%len(s.xs)
		cfg := sim.DefaultConfig("")
		applyOptions(&cfg, o)
		s.lines[l].set(&cfg, s.xs[i])
		results, err := runReps(cfg, o)
		if err != nil {
			return fmt.Errorf("%s/%s x=%v: %w", s.id, s.lines[l].name, s.xs[i], err)
		}
		obs := make([]float64, len(results))
		for r, rd := range reads {
			for k, res := range results {
				if obs[k], err = rd.of(&cfg, res); err != nil {
					return fmt.Errorf("%s/%s x=%v rep %d: %w", s.id, s.lines[l].name, s.xs[i], k, err)
				}
			}
			iv := stats.MeanCI(obs, 0.95)
			series := fig.Series[r*len(s.lines)+l]
			series.Values[i] = iv.Mean
			if o.Reps > 1 {
				series.HalfWidths[i] = iv.HalfWide
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}

// Figure3 reproduces "Sensitivity to system heterogeneity": the
// 98th-percentile metric as heterogeneity grows from 20% to 65%,
// including the capacity-aware DAL baseline that demonstrates
// homogeneous-system policies do not transfer.
func Figure3(o Options) (*Figure, error) {
	return sweep{
		id: "fig3", title: "Sensitivity to system heterogeneity",
		xlabel: "Heterogeneity (max difference among server capacities %)",
		xs:     []float64{20, 35, 50, 65},
		lines: policyLines(func(cfg *sim.Config, x float64) { cfg.HeterogeneityPct = int(x) },
			"DRR2-TTL/S_K", "DRR2-TTL/S_2", "PRR2-TTL/K", "PRR2-TTL/2", "DAL", "RR"),
	}.run(o)
}

// minTTLFigure sweeps the minimum TTL imposed by non-cooperative name
// servers, in seconds, over the adaptive schemes compared in Figures 4
// and 5.
func minTTLFigure(id string, het int, o Options) (*Figure, error) {
	return sweep{
		id: id, title: fmt.Sprintf("Sensitivity to minimum TTL (Het. %d%%)", het),
		xlabel: "Minimum TTL (sec)",
		xs:     []float64{0, 60, 120, 180, 240, 300},
		lines: policyLines(func(cfg *sim.Config, x float64) {
			cfg.HeterogeneityPct = het
			cfg.MinNSTTL = x
		}, "DRR2-TTL/S_K", "DRR-TTL/S_K", "PRR2-TTL/K", "PRR-TTL/K", "PRR2-TTL/2"),
	}.run(o)
}

// Figure4 reproduces "Sensitivity to minimum TTL (Het. 20%)": the
// worst-case scenario where every NS raises any proposed TTL below the
// x-axis threshold.
func Figure4(o Options) (*Figure, error) { return minTTLFigure("fig4", 20, o) }

// Figure5 reproduces "Sensitivity to minimum TTL (Het. 50%)".
func Figure5(o Options) (*Figure, error) { return minTTLFigure("fig5", 50, o) }

// errorFigure sweeps the maximum error in estimating the domain hidden
// load weight, in percent, over the eight adaptive schemes compared in
// Figures 6–7.
func errorFigure(id string, het int, o Options) (*Figure, error) {
	return sweep{
		id: id, title: fmt.Sprintf("Sensitivity to estimation error (Het. %d%%)", het),
		xlabel: "Estimation Error %",
		xs:     []float64{0, 10, 20, 30, 40, 50},
		lines: policyLines(func(cfg *sim.Config, x float64) {
			cfg.HeterogeneityPct = het
			cfg.Workload.PerturbationPct = x
		}, "DRR2-TTL/S_K", "DRR-TTL/S_K", "PRR2-TTL/K", "PRR-TTL/K",
			"DRR2-TTL/S_2", "DRR-TTL/S_2", "PRR2-TTL/2", "PRR-TTL/2"),
	}.run(o)
}

// Figure6 reproduces "Sensitivity to error in estimating the domain
// hidden load weight (Het. 20%)": the busiest domain's actual rate is
// inflated by the x-axis percentage while the DNS keeps stale
// estimates.
func Figure6(o Options) (*Figure, error) { return errorFigure("fig6", 20, o) }

// Figure7 reproduces the same sensitivity at 50% heterogeneity, where
// the two-class schemes degrade substantially.
func Figure7(o Options) (*Figure, error) { return errorFigure("fig7", 50, o) }

// Table2 reproduces the paper's Table 2: the relative server
// capacities of the four heterogeneity levels.
func Table2() (*Figure, error) {
	fig := &Figure{
		ID:     "table2",
		Title:  "Parameters of the heterogeneity levels (relative capacities)",
		XLabel: "Server",
		YLabel: "Relative capacity",
		XVals:  []float64{1, 2, 3, 4, 5, 6, 7},
	}
	for _, level := range []int{20, 35, 50, 65} {
		v, err := core.HeterogeneityVector(7, level)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, Series{Name: fmt.Sprintf("%d%%", level), Values: v})
	}
	return fig, nil
}

// Runner executes one experiment.
type Runner func(Options) (*Figure, error)

// Registry maps experiment IDs to their runners: the paper's figures
// (fig1..fig7, table2) plus the extension sweeps and ablations defined
// in extensions.go. Table 1 is a plain parameter echo handled by the
// CLI; Table 2 ignores options.
var Registry = map[string]Runner{
	"fig1":   Figure1,
	"fig2":   Figure2,
	"fig3":   Figure3,
	"fig4":   Figure4,
	"fig5":   Figure5,
	"fig6":   Figure6,
	"fig7":   Figure7,
	"table2": func(Options) (*Figure, error) { return Table2() },

	"ext-domains":     ExtDomains,
	"ext-servers":     ExtServers,
	"ext-load":        ExtLoad,
	"ext-classes":     ExtClasses,
	"ext-alarm":       ExtAlarm,
	"ext-window":      ExtWindow,
	"ext-estimator":   ExtEstimator,
	"ext-failures":    ExtFailures,
	"ext-forecast":    ExtForecast,
	"ext-geo":         ExtGeo,
	"ext-baselines":   ExtBaselines,
	"ext-probes":      ExtProbes,
	"ext-replication": ExtReplication,
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}
