// Command slacksimlint runs the internal/lint analyzer suite over the
// module rooted at the given directory: it loads, type-checks, and lints
// every package from source, entirely offline:
//
//	slacksimlint [-only guardedby,determinism] [dir|./...]
//
// Exit status: 0 clean, 1 findings, 2 operational error.
//
// -allows prints the findings, then every //lint:allow directive with its
// position, analyzers and reason, tagged UNUSED if it suppressed nothing
// and NO REASON if it has none; either fails the run as a finding does.
// A waiver is audited against the whole suite, so -allows refuses -only.
//
// -list prints the analyzer suite (name and first doc sentence).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"slacksim/internal/lint"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("slacksimlint", flag.ContinueOnError)
	only := fs.String("only", "", "comma-separated analyzer subset (default: all)")
	allows := fs.Bool("allows", false, "after the findings, inventory //lint:allow directives and fail on stale or unjustified ones")
	list := fs.Bool("list", false, "list the analyzer suite and exit")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: slacksimlint [-only a,b] [-allows] [-list] [module-dir]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			doc := a.Doc
			if i := strings.Index(doc, "."); i >= 0 {
				doc = doc[:i+1]
			}
			fmt.Printf("%-14s %s\n", a.Name, strings.Join(strings.Fields(doc), " "))
		}
		return 0
	}
	dir := "."
	if fs.NArg() > 0 {
		dir = fs.Arg(0)
	}
	// `slacksimlint ./...` means the module rooted in the current dir.
	dir = strings.TrimSuffix(dir, "...")
	if dir == "" || dir == "./" {
		dir = "."
	}

	analyzers, err := selectAnalyzers(*only)
	if err == nil && *allows && *only != "" {
		err = fmt.Errorf("-allows audits waivers against the whole suite; drop -only")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "slacksimlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "slacksimlint:", err)
		return 2
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "slacksimlint:", err)
		return 2
	}
	var total int
	for _, pkg := range pkgs {
		findings, err := pkg.Lint(analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "slacksimlint:", err)
			return 2
		}
		for _, f := range findings {
			total++
			fmt.Println(f)
		}
	}
	status := min(total, 1)
	if total > 0 {
		fmt.Fprintf(os.Stderr, "slacksimlint: %d finding(s)\n", total)
	}
	if *allows {
		status = max(status, printAllowInventory(pkgs))
	}
	return status
}

// printAllowInventory lists every //lint:allow directive, one
// "<file>:<line>: <analyzers> -- <reason>" line each, with its usage
// observed from the suite run that just completed. Stale (UNUSED) or
// unjustified (NO REASON) directives fail the audit.
func printAllowInventory(pkgs []*lint.Package) int {
	if len(pkgs) == 0 {
		return 0
	}
	bad := 0
	for _, info := range pkgs[0].Program().AllowInventory() {
		var tags []string
		if !info.Used {
			tags = append(tags, "UNUSED")
		}
		if info.Reason == "" {
			tags = append(tags, "NO REASON")
		}
		tag := ""
		if len(tags) > 0 {
			bad++
			tag = "  [" + strings.Join(tags, ", ") + "]"
		}
		fmt.Printf("%s:%d: %s -- %s%s\n",
			info.Position.Filename, info.Position.Line,
			strings.Join(info.Analyzers, ","), info.Reason, tag)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "slacksimlint: %d stale or unjustified //lint:allow directive(s)\n", bad)
		return 1
	}
	return 0
}

func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	var names []string
	for _, n := range strings.Split(only, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return lint.ByName(names)
}
