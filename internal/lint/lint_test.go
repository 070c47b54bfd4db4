package lint_test

import (
	"path/filepath"
	"testing"

	"slacksim/internal/lint"
	"slacksim/internal/lint/linttest"
)

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestDeterminismFixture(t *testing.T) {
	linttest.Run(t, fixture("determinism"), []*lint.Analyzer{lint.Determinism})
}

func TestHotPathAllocFixture(t *testing.T) {
	linttest.Run(t, fixture("hotpathalloc"), []*lint.Analyzer{lint.HotPathAlloc})
}

func TestGuardedByFixture(t *testing.T) {
	linttest.Run(t, fixture("guardedby"), []*lint.Analyzer{lint.GuardedBy})
}

// TestReasonlessAllowIsReported pins the directive contract: an allow
// without a reason suppresses its target finding but surfaces as a
// lintdirective finding of its own.
func TestReasonlessAllowIsReported(t *testing.T) {
	pkg, err := lint.LoadDir(fixture("lintdirective"))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	findings, err := pkg.Lint(lint.Analyzers())
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	var directive, guardedby int
	for _, f := range findings {
		switch f.Analyzer {
		case "lintdirective":
			directive++
		case "guardedby":
			guardedby++
		}
	}
	if directive != 1 {
		t.Errorf("want exactly 1 lintdirective finding, got %d (%v)", directive, findings)
	}
	if guardedby != 0 {
		t.Errorf("the allow should still suppress the guardedby finding, got %d (%v)", guardedby, findings)
	}
}

func TestByName(t *testing.T) {
	got, err := lint.ByName([]string{"guardedby", "determinism"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "guardedby" || got[1].Name != "determinism" {
		t.Fatalf("ByName returned %v", got)
	}
	if _, err := lint.ByName([]string{"nope"}); err == nil {
		t.Fatal("ByName should reject unknown analyzer names")
	}
	if all, err := lint.ByName(nil); err != nil || len(all) != 5 {
		t.Fatalf("ByName(nil) = %v, %v; want the full 5-analyzer suite", all, err)
	}
}

func TestPoolEscapeFixture(t *testing.T) {
	linttest.Run(t, fixture("poolescape"), []*lint.Analyzer{lint.PoolEscape})
}

func TestKeyAppendFixture(t *testing.T) {
	linttest.Run(t, fixture("keyappend"), []*lint.Analyzer{lint.KeyAppend})
}

// TestHotPathInterFixture exercises the interprocedural side of
// hotpathalloc: callee allocations propagate to hotpath callers through
// call-graph summaries, waivers at the callee clear its summary, and the
// cold-path conventions (panic, Enabled() guards) are honored.
func TestHotPathInterFixture(t *testing.T) {
	linttest.Run(t, fixture("hotpathinter"), []*lint.Analyzer{lint.HotPathAlloc})
}

// TestEveryAnalyzerHasFixture keeps the suite and the fixture tree in
// lockstep: registering an analyzer without a fixture directory fails.
func TestEveryAnalyzerHasFixture(t *testing.T) {
	for _, a := range lint.Analyzers() {
		dir := fixture(a.Name)
		if a.Name == "hotpathalloc" {
			// Covered by both hotpathalloc (intra) and hotpathinter (inter).
			dir = fixture("hotpathinter")
		}
		matches, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		if len(matches) == 0 {
			t.Errorf("analyzer %s has no fixture under %s", a.Name, dir)
		}
	}
}
