// Command edgelint runs edgecache's custom static analyzers (see
// internal/lint) over the module and prints findings in the familiar
// file:line:col format. It exits non-zero when any finding survives the
// //edgecache:lint-ignore directives, so verify.sh and CI can gate on it.
// Every run loads and type-checks the packages and runs the analyzers;
// -fix applies the machine-applicable rewrites from that same run.
//
// Usage:
//
//	go run ./cmd/edgelint ./...
//	go run ./cmd/edgelint -analyzers floateq,determinism -fix ./...
//	go run ./cmd/edgelint -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"edgecache/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edgelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "print the analyzer suite and exit")
		fix       = fs.Bool("fix", false, "apply machine-applicable fixes (floateq rewrites) in place")
		analyzers = fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		dir       = fs.String("C", ".", "change to this directory before loading packages")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	suite, err := lint.ByName(*analyzers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := lint.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	diags := prog.Run(suite, lint.DefaultSkip)
	if *fix {
		applied, err := applyFixes(prog, diags)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if applied > 0 {
			fmt.Fprintf(stdout, "edgelint: applied %d fix(es); re-run to verify\n", applied)
		}
		// Report only what a fix could not resolve.
		var remaining []lint.Diagnostic
		for _, d := range diags {
			if len(d.Fixes) == 0 {
				remaining = append(remaining, d)
			}
		}
		diags = remaining
	}

	for _, d := range diags {
		fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "edgelint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// applyFixes rewrites source files with every machine-applicable fix.
// Edits are grouped per file and applied back-to-front so earlier offsets
// stay valid.
func applyFixes(prog *lint.Program, diags []lint.Diagnostic) (int, error) {
	type edit struct {
		start, end int // byte offsets
		newText    string
	}
	perFile := map[string][]edit{}
	seen := map[string]map[edit]bool{}
	applied := 0
	for _, d := range diags {
		if len(d.Fixes) == 0 {
			continue
		}
		applied++
		for _, f := range d.Fixes {
			start := prog.Fset.Position(f.Pos)
			end := prog.Fset.Position(f.End)
			e := edit{start.Offset, end.Offset, f.NewText}
			// Several diagnostics in one file may carry the same edit
			// (e.g. each floateq finding wants the same import insertion);
			// apply it once.
			if seen[start.Filename] == nil {
				seen[start.Filename] = map[edit]bool{}
			}
			if seen[start.Filename][e] {
				continue
			}
			seen[start.Filename][e] = true
			perFile[start.Filename] = append(perFile[start.Filename], e)
		}
	}
	for filename, edits := range perFile {
		src, err := os.ReadFile(filename)
		if err != nil {
			return applied, fmt.Errorf("edgelint: -fix: %v", err)
		}
		sort.Slice(edits, func(i, j int) bool { return edits[i].start > edits[j].start })
		for i := 1; i < len(edits); i++ {
			if edits[i].end > edits[i-1].start {
				return applied, fmt.Errorf("edgelint: -fix: overlapping edits in %s; fix manually", filename)
			}
		}
		for _, e := range edits {
			src = append(src[:e.start], append([]byte(e.newText), src[e.end:]...)...)
		}
		if err := os.WriteFile(filename, src, 0o644); err != nil {
			return applied, fmt.Errorf("edgelint: -fix: %v", err)
		}
	}
	return applied, nil
}
