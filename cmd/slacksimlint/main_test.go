package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"slacksim/internal/lint"
)

// buildTool compiles the slacksimlint binary once per test run.
func buildTool(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "slacksimlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestStandaloneCleanOnRepo is the CI gate in miniature: the binary must
// exit 0 over the real repository.
func TestStandaloneCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short")
	}
	bin := buildTool(t)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, repoRoot(t))
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("slacksimlint on the repo should exit 0, got %v\nstdout:\n%s\nstderr:\n%s",
			err, stdout.String(), stderr.String())
	}
}

// TestAllowInventoryMode exercises -allows on a fixture module with one
// used waiver, one stale waiver, and one reason-less waiver: the one run
// prints the findings (the reason-less waiver is one) and then the
// inventory, where the stale and reason-less ones are tagged and fail the
// audit.
func TestAllowInventoryMode(t *testing.T) {
	bin := buildTool(t)
	dir := filepath.Join(repoRoot(t), "internal", "lint", "testdata", "allowmod")
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-allows", dir)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("-allows should exit 1 on allowmod, got %v\nstdout:\n%s\nstderr:\n%s",
			err, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"lintdirective: //lint:allow directive is missing its mandatory reason",
		"a used, justified waiver", // the clean one is listed, untagged
		"[UNUSED]",
		"[NO REASON]",
	} {
		if !bytes.Contains(stdout.Bytes(), []byte(want)) {
			t.Errorf("-allows output should contain %q, got:\n%s", want, out)
		}
	}
	if bytes.Contains(stdout.Bytes(), []byte("a used, justified waiver  [")) {
		t.Errorf("the used waiver must not be tagged, got:\n%s", out)
	}
}

// TestAllowsNeedsWholeSuite: with -only, a waiver for an analyzer left
// out would read as unused, so -allows refuses the subset.
func TestAllowsNeedsWholeSuite(t *testing.T) {
	bin := buildTool(t)
	dir := filepath.Join(repoRoot(t), "internal", "lint", "testdata", "allowmod")
	err := exec.Command(bin, "-allows", "-only", "guardedby", dir).Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("-allows -only should exit 2, got %v", err)
	}
}

// TestAllowInventoryCleanOnRepo is the waiver-audit CI gate in
// miniature: every //lint:allow in the repository must still suppress a
// finding and carry a reason.
func TestAllowInventoryCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source; skipped in -short")
	}
	bin := buildTool(t)
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-allows", repoRoot(t))
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("slacksimlint -allows on the repo should exit 0, got %v\nstdout:\n%s\nstderr:\n%s",
			err, stdout.String(), stderr.String())
	}
}

// TestListMatchesSuite keeps the command's -list surface in sync with
// the internal/lint registration: every analyzer in the suite must be
// listed, and nothing else.
func TestListMatchesSuite(t *testing.T) {
	bin := buildTool(t)
	out, err := exec.Command(bin, "-list").Output()
	if err != nil {
		t.Fatalf("-list: %v", err)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		if len(fields) > 0 {
			listed[fields[0]] = true
		}
	}
	suite := lint.Analyzers()
	for _, a := range suite {
		if !listed[a.Name] {
			t.Errorf("-list omits analyzer %s", a.Name)
		}
	}
	if len(listed) != len(suite) {
		t.Errorf("-list prints %d analyzers, suite has %d: %v", len(listed), len(suite), listed)
	}
}

// TestReadmeNamesSuite keeps the README's Lint section in sync with the
// registered suite: a new analyzer lands with its documentation.
func TestReadmeNamesSuite(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join(repoRoot(t), "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range lint.Analyzers() {
		if !bytes.Contains(readme, []byte(a.Name)) {
			t.Errorf("README.md does not mention analyzer %s", a.Name)
		}
	}
}
