package engine

import (
	"net/netip"
	"testing"

	"dnslb/internal/core"
	"dnslb/internal/simcore"
)

func queryTestEngine(t *testing.T, ecs ECSMode) *Engine {
	t.Helper()
	clock := &ManualClock{}
	clock.Set(1)
	cluster, err := core.NewCluster([]float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	state, err := core.NewState(cluster, confDomains)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.NewPolicy(core.PolicyConfig{
		Name:        "RR",
		State:       state,
		Rand:        simcore.NewStream(1, "policy"),
		Now:         clock.Now,
		ConstantTTL: core.DefaultConstantTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Policy: pol, Clock: clock, Mapper: confQueryMapper, ECS: ecs})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestDecideQueryWithoutMapper(t *testing.T) {
	clock := &ManualClock{}
	cluster, err := core.NewCluster([]float64{100})
	if err != nil {
		t.Fatal(err)
	}
	state, err := core.NewState(cluster, 1)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.NewPolicy(core.PolicyConfig{
		Name:        "RR",
		State:       state,
		Rand:        simcore.NewStream(1, "policy"),
		Now:         clock.Now,
		ConstantTTL: core.DefaultConstantTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Policy: pol, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.DecideQuery(QueryContext{Resolver: confQueryAddr(0)}); err != ErrNoMapper {
		t.Fatalf("DecideQuery without mapper: err = %v, want ErrNoMapper", err)
	}
}

func TestClassifySubnetModes(t *testing.T) {
	resolver := netip.MustParseAddr("10.0.3.1")
	client24 := netip.MustParsePrefix("10.0.5.0/24")
	client32 := netip.MustParsePrefix("10.0.5.9/32")
	v6Client := netip.MustParsePrefix("2001:db8:0:42::/64")

	cases := []struct {
		name       string
		ecs        ECSMode
		qc         QueryContext
		wantSubnet string // "" = invalid (classify by resolver)
		wantScoped bool
	}{
		{"passthrough no ECS", ECSPassthrough, QueryContext{Resolver: resolver}, "", false},
		{"passthrough /24", ECSPassthrough, QueryContext{Resolver: resolver, ClientSubnet: client24}, "10.0.5.0/24", true},
		{"passthrough clamps /32", ECSPassthrough, QueryContext{Resolver: resolver, ClientSubnet: client32}, "10.0.5.0/24", true},
		{"passthrough clamps v6 to /56", ECSPassthrough, QueryContext{Resolver: resolver, ClientSubnet: v6Client}, "2001:db8:0:0::/56", true},
		{"add synthesizes from resolver", ECSAdd, QueryContext{Resolver: resolver}, "10.0.3.0/24", false},
		{"add keeps forwarded subnet", ECSAdd, QueryContext{Resolver: resolver, ClientSubnet: client24}, "10.0.5.0/24", true},
		{"override ignores forwarded subnet", ECSOverride, QueryContext{Resolver: resolver, ClientSubnet: client24}, "10.0.3.0/24", false},
		{"override invalid resolver", ECSOverride, QueryContext{}, "", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := queryTestEngine(t, c.ecs)
			subnet, scoped := eng.classifySubnet(c.qc)
			if c.wantSubnet == "" {
				if subnet.IsValid() {
					t.Fatalf("classifySubnet = %v, want invalid", subnet)
				}
			} else if subnet != netip.MustParsePrefix(c.wantSubnet) {
				t.Fatalf("classifySubnet = %v, want %s", subnet, c.wantSubnet)
			}
			if scoped != c.wantScoped {
				t.Fatalf("scoped = %v, want %v", scoped, c.wantScoped)
			}
		})
	}
}

func TestDecideQueryScopeEcho(t *testing.T) {
	// Scoped decisions echo the honoured (post-clamp) source length;
	// unscoped ones echo 0 per RFC 7871 ("not tailored to your subnet").
	eng := queryTestEngine(t, ECSPassthrough)
	qd, err := eng.DecideQuery(QueryContext{
		Resolver:     confQueryAddr(1),
		ClientSubnet: netip.MustParsePrefix("10.0.2.9/32"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !qd.ClientScoped || qd.Scope != 24 {
		t.Fatalf("clamped /32: scoped %v scope %d, want true/24", qd.ClientScoped, qd.Scope)
	}
	if qd.Domain != 2 {
		t.Fatalf("classified domain %d, want 2 (by subnet, not resolver)", qd.Domain)
	}

	over := queryTestEngine(t, ECSOverride)
	qd, err = over.DecideQuery(QueryContext{
		Resolver:     confQueryAddr(1),
		ClientSubnet: netip.MustParsePrefix("10.0.2.0/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if qd.ClientScoped || qd.Scope != 0 {
		t.Fatalf("override: scoped %v scope %d, want false/0", qd.ClientScoped, qd.Scope)
	}
	if qd.Domain != 1 {
		t.Fatalf("override classified domain %d, want 1 (by resolver)", qd.Domain)
	}
}

func TestECSConfigValidation(t *testing.T) {
	eng := queryTestEngine(t, ECSPassthrough)
	if _, err := New(Config{Policy: eng.Policy(), Clock: eng.clock, ECS: ECSOverride + 1}); err == nil {
		t.Error("an unknown ECS mode should fail validation")
	}
}

func TestParseECSMode(t *testing.T) {
	for s, want := range map[string]ECSMode{
		"":            ECSPassthrough,
		"passthrough": ECSPassthrough,
		"add":         ECSAdd,
		"override":    ECSOverride,
	} {
		got, err := ParseECSMode(s)
		if err != nil || got != want {
			t.Errorf("ParseECSMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseECSMode("bogus"); err == nil {
		t.Error("ParseECSMode(bogus) should error")
	}
	for m, s := range map[ECSMode]string{ECSPassthrough: "passthrough", ECSAdd: "add", ECSOverride: "override"} {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
}

func TestTransportString(t *testing.T) {
	for tr, s := range map[Transport]string{
		TransportNone: "none", TransportUDP: "udp", TransportTCP: "tcp", TransportDoH: "doh",
	} {
		if tr.String() != s {
			t.Errorf("Transport(%d).String() = %q, want %q", tr, tr.String(), s)
		}
	}
}
