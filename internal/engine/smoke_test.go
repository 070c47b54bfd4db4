package engine

import (
	"testing"

	"slacksim/internal/workload"
)

func newTestMachine(t testing.TB, w Workload, cores int) *Machine {
	t.Helper()
	cfg := MachineConfig{NumCores: cores}
	m, err := NewMachine(cfg, w)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	return m
}

func TestSmokePrivateCC(t *testing.T) {
	w := workload.NewPrivate(64, 2)
	m := newTestMachine(t, w, 2)
	res, err := Run(m, RunConfig{Scheme: CycleByCycle(), Seed: 1})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Committed == 0 {
		t.Fatalf("nothing committed")
	}
	if err := w.VerifyCores(m.Memory(), 2); err != nil {
		t.Fatalf("verify: %v", err)
	}
	t.Logf("%s", res)
}

func TestSmokeFalseShareUnbounded(t *testing.T) {
	w := workload.NewFalseShare(64)
	m := newTestMachine(t, w, 4)
	res, err := Run(m, RunConfig{Scheme: UnboundedSlack(), Seed: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := w.VerifyCores(m.Memory(), 4); err != nil {
		t.Fatalf("verify: %v", err)
	}
	t.Logf("%s", res)
}
