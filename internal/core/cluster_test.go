package core

import (
	"math"
	"testing"
)

// MustCluster is NewCluster for statically known capacity vectors;
// it panics on invalid input.
func MustCluster(capacities []float64) *Cluster {
	c, err := NewCluster(capacities)
	if err != nil {
		panic(err)
	}
	return c
}

// clusterTotal returns the aggregate capacity ΣC_i in hits/second.
func clusterTotal(c *Cluster) float64 {
	var sum float64
	for i := 0; i < c.N(); i++ {
		sum += c.Capacity(i)
	}
	return sum
}

// heterogeneity returns the paper's heterogeneity level 1 - C_N/C_1 of
// a statically built (sorted) cluster.
func heterogeneity(c *Cluster) float64 { return 1 - c.Capacity(c.N()-1)/c.Capacity(0) }

func TestNewClusterValidation(t *testing.T) {
	tests := []struct {
		name    string
		caps    []float64
		wantErr bool
	}{
		{"valid homogeneous", []float64{10, 10, 10}, false},
		{"valid decreasing", []float64{10, 8, 5}, false},
		{"empty", nil, true},
		{"zero capacity", []float64{10, 0}, true},
		{"negative capacity", []float64{10, -1}, true},
		{"NaN", []float64{math.NaN()}, true},
		{"Inf", []float64{math.Inf(1)}, true},
		{"not sorted", []float64{5, 10}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewCluster(tt.caps)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewCluster(%v) error = %v, wantErr %v", tt.caps, err, tt.wantErr)
			}
		})
	}
}

func TestClusterDerivedQuantities(t *testing.T) {
	c := MustCluster([]float64{100, 80, 50})
	if c.N() != 3 {
		t.Errorf("N = %d", c.N())
	}
	if c.Capacity(1) != 80 {
		t.Errorf("Capacity(1) = %v", c.Capacity(1))
	}
	s, err := NewState(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	if got := sn.Alpha(2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Alpha(2) = %v, want 0.5", got)
	}
	if sn.Alpha(0) != 1 {
		t.Errorf("Alpha(0) = %v, want 1", sn.Alpha(0))
	}
	if got := sn.Rho(); math.Abs(got-2) > 1e-12 {
		t.Errorf("Rho = %v, want 2", got)
	}
}

func TestMustClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCluster on invalid input should panic")
		}
	}()
	MustCluster(nil)
}

func TestHeterogeneityVectorTable2(t *testing.T) {
	tests := []struct {
		level int
		want  []float64
	}{
		{20, []float64{1, 1, 1, 0.8, 0.8, 0.8, 0.8}},
		{35, []float64{1, 1, 0.8, 0.8, 0.65, 0.65, 0.65}},
		{50, []float64{1, 1, 0.8, 0.8, 0.5, 0.5, 0.5}},
		{65, []float64{1, 1, 0.8, 0.8, 0.35, 0.35, 0.35}},
	}
	for _, tt := range tests {
		got, err := HeterogeneityVector(7, tt.level)
		if err != nil {
			t.Fatalf("level %d: %v", tt.level, err)
		}
		for i := range tt.want {
			if math.Abs(got[i]-tt.want[i]) > 1e-12 {
				t.Errorf("level %d server %d: got %v, want %v (paper Table 2)", tt.level, i, got[i], tt.want[i])
			}
		}
	}
}

func TestHeterogeneityVectorGeneralized(t *testing.T) {
	for _, n := range []int{5, 9, 17} {
		for _, level := range []int{20, 35, 50, 65} {
			v, err := HeterogeneityVector(n, level)
			if err != nil {
				t.Fatalf("n=%d level=%d: %v", n, level, err)
			}
			if len(v) != n {
				t.Fatalf("n=%d: got %d servers", n, len(v))
			}
			if v[0] != 1 {
				t.Errorf("n=%d level=%d: fastest relative capacity %v, want 1", n, level, v[0])
			}
			want := 1 - float64(level)/100
			if math.Abs(v[n-1]-want) > 1e-12 {
				t.Errorf("n=%d level=%d: slowest %v, want %v", n, level, v[n-1], want)
			}
			for i := 1; i < n; i++ {
				if v[i] > v[i-1] {
					t.Errorf("n=%d level=%d: not sorted at %d", n, level, i)
				}
			}
		}
	}
}

func TestHeterogeneityVectorZeroLevel(t *testing.T) {
	v, err := HeterogeneityVector(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range v {
		if x != 1 {
			t.Errorf("server %d relative capacity %v, want 1 for homogeneous", i, x)
		}
	}
}

func TestHeterogeneityVectorErrors(t *testing.T) {
	if _, err := HeterogeneityVector(0, 20); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := HeterogeneityVector(7, -1); err == nil {
		t.Error("negative level should error")
	}
	if _, err := HeterogeneityVector(7, 100); err == nil {
		t.Error("level 100 should error")
	}
}

func TestScaledCluster(t *testing.T) {
	c, err := ScaledCluster(7, 20, 500)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(clusterTotal(c)-500) > 1e-9 {
		t.Errorf("Total = %v, want the paper's constant 500 hits/s", clusterTotal(c))
	}
	if math.Abs(heterogeneity(c)-0.2) > 1e-12 {
		t.Errorf("Heterogeneity = %v, want 0.2", heterogeneity(c))
	}
	// All four paper levels keep total capacity constant.
	for _, level := range []int{20, 35, 50, 65} {
		c, err := ScaledCluster(7, level, 500)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(clusterTotal(c)-500) > 1e-9 {
			t.Errorf("level %d: Total = %v, want 500", level, clusterTotal(c))
		}
	}
	if _, err := ScaledCluster(7, 20, 0); err == nil {
		t.Error("zero total capacity should error")
	}
	if _, err := ScaledCluster(0, 20, 500); err == nil {
		t.Error("zero servers should error")
	}
}
