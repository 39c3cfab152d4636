package sim

import (
	"strings"
	"testing"

	"repro/internal/sysreg"
	"repro/internal/workload"
)

func validConfig() Config {
	return Config{System: Gemini, Workload: workload.Redis()}
}

func TestConfigValidateAcceptsDefaults(t *testing.T) {
	if err := validConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestConfigValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantSub string
	}{
		{"system-negative", func(c *Config) { c.System = -1 }, "out of range"},
		{"system-past-end", func(c *Config) { c.System = System(sysreg.Count()) }, "out of range"},
		{"negative-requests", func(c *Config) { c.Requests = -1 }, "negative pacing"},
		{"negative-warmup", func(c *Config) { c.WarmupRequests = -5 }, "negative pacing"},
		{"negative-requests-per-tick", func(c *Config) { c.RequestsPerTick = -2 }, "negative pacing"},
		{"negative-recover-ticks", func(c *Config) { c.RecoverEveryTicks = -1 }, "negative pacing"},
		{"negative-audit-every", func(c *Config) { c.AuditEvery = -8 }, "negative pacing"},
		{"negative-guest-mem", func(c *Config) { c.GuestMemMB = -1 }, "negative memory"},
		{"negative-host-mem", func(c *Config) { c.HostMemMB = -1 }, "negative memory"},
		{"frag-target-negative", func(c *Config) { c.FragTarget = -0.1 }, "FragTarget"},
		{"frag-target-one", func(c *Config) { c.FragTarget = 1.0 }, "FragTarget"},
		{"guest-exceeds-host", func(c *Config) { c.GuestMemMB = 4096; c.HostMemMB = 1024 },
			"exceeds host"},
		{"unnamed-workload", func(c *Config) { c.Workload = workload.Spec{} }, "no name"},
		{"zero-footprint", func(c *Config) { c.Workload.FootprintMB = 0 }, "positive footprint"},
		{"zero-request-pages", func(c *Config) { c.Workload.RequestPages = 0 }, "positive footprint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := validConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted %+v", cfg)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestColocatedPairValidate(t *testing.T) {
	ok := ColocatedPair(Gemini, workload.Redis(), workload.Shore(), 1)
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid colocated pair rejected: %v", err)
	}
	if err := ColocatedPair(Gemini, workload.Redis(), workload.Spec{}, 1).Validate(); err == nil {
		t.Fatal("Validate accepted a colocated pair with an unnamed workload B")
	}
	if err := ColocatedPair(System(sysreg.Count()), workload.Redis(), workload.Shore(), 1).Validate(); err == nil {
		t.Fatal("Validate accepted an out-of-range system")
	}
}

// TestColocatedPairPinsSetting locks the §6.5 setting the constructor
// pins: the consolidation fragmentation target and density, and the
// historical seed streams and request count, with memory sizes left
// to the engine defaults.
func TestColocatedPairPinsSetting(t *testing.T) {
	ec := ColocatedPair(THP, workload.Redis(), workload.Shore(), 100)
	if ec.FragTarget != 0.9 || ec.Seed != 100 || ec.HostMemMB != 0 || ec.Requests != 4000 {
		t.Fatalf("engine fields: %+v", ec)
	}
	if *ec.HostFrag != (FragSpec{Seed: 111, Target: 0.9, Density: 0.4}) {
		t.Errorf("host fragmenter %+v", *ec.HostFrag)
	}
	for i, want := range []struct{ workload, frag int64 }{{121, 112}, {122, 113}} {
		vc := ec.VMs[i]
		if vc.System != THP || vc.WorkloadSeed != want.workload || vc.GuestMemMB != 0 {
			t.Errorf("VM %d: %+v", i, vc)
		}
		if *vc.GuestFrag != (FragSpec{Seed: want.frag, Target: 0.9, Density: 0.4}) {
			t.Errorf("VM %d guest fragmenter %+v", i, *vc.GuestFrag)
		}
	}
}

// TestRunPanicsOnInvalidConfig locks the Run entry point's contract:
// invalid configurations fail loudly instead of running with garbage.
func TestRunPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run did not panic on an invalid config")
		}
	}()
	cfg := validConfig()
	cfg.System = -3
	Run(cfg)
}
