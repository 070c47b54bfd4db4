package lint_test

import (
	"path/filepath"
	"testing"

	"slacksim/internal/lint"
)

// TestRepoIsLintClean runs the full analyzer suite over every package
// in the repository: the tree must stay finding-free (suppressions
// carry written reasons; real issues get fixed). This is the in-process
// half of the CI gate; cmd/slacksimlint tests the binary.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded zero packages from the repo")
	}
	var total int
	for _, pkg := range pkgs {
		findings, err := pkg.Lint(lint.Analyzers())
		if err != nil {
			t.Fatalf("lint %s: %v", pkg.ImportPath, err)
		}
		for _, f := range findings {
			total++
			t.Errorf("%s", f)
		}
	}
	if total > 0 {
		t.Errorf("%d finding(s); fix them or add `//lint:allow <name> -- <reason>` for genuinely-safe cases", total)
	}
}
