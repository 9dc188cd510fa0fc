package sim

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

func TestDetectionValidation(t *testing.T) {
	for _, d := range []DetectionConfig{
		{Kind: "sonar", Interval: 5, FailN: 3, RiseM: 2},
		{Kind: DetectProbe, Interval: 0, FailN: 3, RiseM: 2},
		{Kind: DetectProbe, Interval: 5, FailN: 0, RiseM: 2},
		{Kind: DetectProbe, Interval: 5, FailN: 3, RiseM: 0},
		{Kind: DetectReport, Interval: 5, K: 0},
	} {
		cfg := DefaultConfig("RR")
		d := d
		cfg.Detection = &d
		if err := cfg.Validate(); err == nil {
			t.Errorf("detection %+v accepted", d)
		}
	}
}

func TestDetectionDelayBounds(t *testing.T) {
	for _, tc := range []struct {
		name           string
		det            DetectionConfig
		downLo, downHi float64
		upLo, upHi     float64
	}{
		{
			name:   "probe",
			det:    DetectionConfig{Kind: DetectProbe, Interval: 5, FailN: 3, RiseM: 2},
			downLo: 10, downHi: 15, // (FailN-1)·I ≤ delay < FailN·I
			upLo: 5, upHi: 10, // (RiseM-1)·I ≤ delay < RiseM·I
		},
		{
			name:   "report",
			det:    DetectionConfig{Kind: DetectReport, Interval: 8, K: 3},
			downLo: 16, downHi: 24, // (K-1)·I ≤ delay < K·I
			upLo: 0, upHi: 8, // first report after restart
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := faultCfg("DRR2-TTL/S_K", 400, 600)
			det := tc.det
			cfg.Detection = &det
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.DetectedCrashes != 1 {
				t.Fatalf("DetectedCrashes = %d, want 1", res.DetectedCrashes)
			}
			if d := res.MeanDetectionDelay; d < tc.downLo || d >= tc.downHi {
				t.Errorf("detection delay %v outside [%v,%v)", d, tc.downLo, tc.downHi)
			}
			if d := res.MeanReviveDelay; d < tc.upLo || d >= tc.upHi {
				t.Errorf("revive delay %v outside [%v,%v)", d, tc.upLo, tc.upHi)
			}
		})
	}
}

// TestDetectionLagCostsPages: the same outage loses at least as many
// pages under delayed detection as under instant knowledge — during
// the detection window the scheduler keeps handing out the dead
// server to fresh resolutions, not just to cached mappings.
func TestDetectionLagCostsPages(t *testing.T) {
	cfg := faultCfg("DRR2-TTL/S_K", 400, 600)
	instant, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det := cfg
	det.Detection = &DetectionConfig{Kind: DetectReport, Interval: 60, K: 3}
	delayed, err := Run(det)
	if err != nil {
		t.Fatal(err)
	}
	if delayed.DeadServerHits <= instant.DeadServerHits {
		t.Errorf("delayed detection lost %d dead-server hits, instant lost %d — lag should cost pages",
			delayed.DeadServerHits, instant.DeadServerHits)
	}
}

// TestDetectionSupersededCrash: an outage shorter than the detection
// floor is never acted on — the recovery event cancels the scheduled
// exclusion, and the scheduler's view never flips.
func TestDetectionSupersededCrash(t *testing.T) {
	cfg := faultCfg("RR", 400, 10) // 10 s outage
	cfg.Detection = &DetectionConfig{Kind: DetectProbe, Interval: 30, FailN: 3, RiseM: 1}
	res, err := Run(cfg) // detection floor (FailN-1)·30 = 60 s > outage
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectedCrashes != 0 {
		t.Errorf("DetectedCrashes = %d for an outage below the detection floor", res.DetectedCrashes)
	}
	if res.MeanDetectionDelay != 0 || res.MeanReviveDelay != 0 {
		t.Errorf("delays %v/%v recorded without a detection", res.MeanDetectionDelay, res.MeanReviveDelay)
	}
	// Ground truth still cost pages during those 10 seconds.
	if res.DeadServerHits == 0 {
		t.Error("no dead-server hits during an undetected outage")
	}
}

func TestDetectionDeterminism(t *testing.T) {
	cfg := faultCfg("PRR2-TTL/K", 400, 600)
	cfg.Detection = &DetectionConfig{Kind: DetectProbe, Interval: 5, FailN: 3, RiseM: 2}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.DeadServerHits != b.DeadServerHits || a.MeanDetectionDelay != b.MeanDetectionDelay ||
		a.MeanReviveDelay != b.MeanReviveDelay || a.TotalHits != b.TotalHits {
		t.Errorf("same seed diverged: %+v vs %+v",
			[3]float64{float64(a.DeadServerHits), a.MeanDetectionDelay, a.MeanReviveDelay},
			[3]float64{float64(b.DeadServerHits), b.MeanDetectionDelay, b.MeanReviveDelay})
	}
}

// Golden fingerprints of one run per detection kind, recorded before
// the fault injector's two install paths shared one apply step: the
// detector's phase draw, the supersede check and the alarm retraction
// all move these hashes. The runs crash server 0 for 240 s, server 3
// for 3 s (below both detection floors, so superseded) and server 5
// for 120 s.
const (
	goldenDetectProbe  = "07ccf98e3ee6cc57f4760d947b36e6445954ac514763db8eef4cc42c6ed468a9"
	goldenDetectReport = "b026d89735bab9f4764a0f4ca8c1347b840ffefe487a8806a19f1dd9d9fd04b5"
)

func TestDetectionGolden(t *testing.T) {
	for _, tc := range []struct {
		det  DetectionConfig
		want string
	}{
		{DetectionConfig{Kind: DetectProbe, Interval: 5, FailN: 3, RiseM: 2}, goldenDetectProbe},
		{DetectionConfig{Kind: DetectReport, Interval: 8, K: 3}, goldenDetectReport},
	} {
		cfg := goldenConfig("PRR2-TTL/K")
		cfg.Faults = append(Outage(0, 300, 240), Outage(3, 400, 3)...)
		cfg.Faults = append(cfg.Faults, Outage(5, 500, 120)...)
		cfg.Detection = &tc.det
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.det.Kind, err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%s %d %d %d %v %v\n", fingerprint(res), res.DeadServerHits, res.LostPages,
			res.DetectedCrashes, res.MeanDetectionDelay, res.MeanReviveDelay)
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
			t.Errorf("%s: output drifted from golden\n got %s\nwant %s", tc.det.Kind, got, tc.want)
		}
	}
}
