// ispy-vet runs the repository's determinism & invariant analyzer
// (internal/vetting) over the module and prints findings in the canonical
// `file:line: pass: message` form. It is part of the gate (`make check`,
// which CI runs): any finding is a non-zero exit.
//
// Usage:
//
//	ispy-vet [-waivers] [-json] [-strict] [-v] [./...]
//
// The package pattern is accepted for familiarity but the analyzer always
// vets the whole module containing the working directory — the passes are
// module-global (stats exhaustiveness needs every reader, the hot-path
// proof walks the whole call graph), so partial loads would under-report.
//
// -waivers lists every //ispy: waiver in effect instead of vetting, for
// periodic review (`make vet-waivers`).
//
// -json emits one JSON object per line — {"file","line","pass","message",
// "waived"} — covering both live findings (waived:false) and findings a
// waiver suppressed (waived:true), for tooling that audits the waiver
// ledger alongside the failures. Paths are module-relative. After the
// findings, the keysound field-coverage table follows as one
// {"table":"keysound","struct","field","compute_read","folded","waived"}
// object per audited field — a distinct shape, so per-pass finding counts
// keyed on "pass" stay accurate.
//
// -strict promotes advisory findings (stale waivers) to gate failures.
// The gate runs strict; plain invocations report them as warnings.
//
// -v prints per-pass wall times to stderr after the run.
//
// Under GitHub Actions (GITHUB_ACTIONS=true) findings are additionally
// emitted as ::error/::warning workflow annotations so they appear inline
// on the PR diff.
//
// Exit codes: 0 clean, 1 findings, 2 load/usage failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ispy/internal/vetting"
)

func main() {
	listWaivers := flag.Bool("waivers", false, "list waivered sites instead of vetting")
	jsonOut := flag.Bool("json", false, "emit one JSON object per finding (live and waived)")
	strict := flag.Bool("strict", false, "treat advisory findings (stale waivers) as failures")
	verbose := flag.Bool("v", false, "print per-pass wall times to stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ispy-vet [-waivers] [-json] [-strict] [-v] [./...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	for _, arg := range flag.Args() {
		if arg != "./..." && arg != "." {
			fmt.Fprintf(os.Stderr, "ispy-vet: unsupported pattern %q (the module is always vetted whole)\n", arg)
			os.Exit(2)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	modRoot, err := vetting.FindModuleRoot(wd)
	if err != nil {
		fatal(err)
	}
	loader := vetting.NewLoader()
	pkgs, err := loader.LoadModule(modRoot)
	if err != nil {
		fatal(err)
	}

	res := vetting.Run(pkgs, vetting.DefaultConfig())

	if *listWaivers {
		for _, w := range res.Waivers {
			fmt.Printf("%s:%d: //ispy:%s %s\n", relTo(modRoot, w.Pos.Filename), w.Pos.Line, w.Directive, w.Reason)
		}
		fmt.Printf("ispy-vet: %d waiver(s) in effect\n", len(res.Waivers))
		return
	}

	gh := os.Getenv("GITHUB_ACTIONS") == "true"
	hard, advisory := 0, 0
	for _, d := range res.Diags {
		if d.Advisory && !*strict {
			advisory++
		} else {
			hard++
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		emit := func(d vetting.Diagnostic, waived bool) {
			enc.Encode(jsonDiag{
				File:    relTo(modRoot, d.Pos.Filename),
				Line:    d.Pos.Line,
				Pass:    string(d.Pass),
				Message: d.Message,
				Waived:  waived,
			})
		}
		for _, d := range res.Diags {
			emit(d, false)
		}
		for _, d := range res.Suppressed {
			emit(d, true)
		}
		for _, c := range res.Coverage {
			enc.Encode(jsonCoverage{
				Table:       "keysound",
				Struct:      c.Struct,
				Field:       c.Field,
				ComputeRead: c.ComputeRead,
				Folded:      c.Folded,
				Waived:      c.Waived,
			})
		}
	} else {
		for _, d := range res.Diags {
			d.Pos.Filename = relTo(modRoot, d.Pos.Filename)
			if d.Advisory && !*strict {
				fmt.Printf("%s (advisory; fails under -strict)\n", d)
			} else {
				fmt.Println(d)
			}
		}
	}
	if gh {
		for _, d := range res.Diags {
			level := "error"
			if d.Advisory && !*strict {
				level = "warning"
			}
			// ::error file=...,line=...,title=...::message annotations render
			// inline on the PR diff.
			fmt.Printf("::%s file=%s,line=%d,title=ispy-vet (%s)::%s\n",
				level, relTo(modRoot, d.Pos.Filename), d.Pos.Line, d.Pass, ghEscape(d.Message))
		}
	}

	if *verbose {
		for _, t := range res.Timings {
			fmt.Fprintf(os.Stderr, "ispy-vet: pass %-12s %v\n", t.Pass, t.Elapsed.Round(time.Microsecond))
		}
	}
	fmt.Fprintf(os.Stderr, "ispy-vet: %d issue(s), %d advisory, %d waiver(s) in effect\n",
		hard, advisory, len(res.Waivers))
	if hard > 0 {
		os.Exit(1)
	}
}

// jsonDiag is the -json line format: stable field names for tooling.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
	Waived  bool   `json:"waived"`
}

// jsonCoverage is one keysound field-coverage row under -json. It carries a
// "table" discriminator and no "pass" key, so tools counting findings per
// pass never mistake coverage rows for diagnostics.
type jsonCoverage struct {
	Table       string `json:"table"`
	Struct      string `json:"struct"`
	Field       string `json:"field"`
	ComputeRead bool   `json:"compute_read"`
	Folded      bool   `json:"folded"`
	Waived      bool   `json:"waived"`
}

// relTo renders a path relative to the module root where possible; the
// absolute path is noise in output meant for diffs and annotations.
func relTo(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !filepath.IsAbs(rel) && rel != "" && rel[0] != '.' {
		return rel
	}
	return path
}

// ghEscape encodes a message for a workflow-command data section: the
// runner parses %, CR and LF specially.
func ghEscape(s string) string {
	var out []byte
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '%':
			out = append(out, "%25"...)
		case '\r':
			out = append(out, "%0D"...)
		case '\n':
			out = append(out, "%0A"...)
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ispy-vet: %v\n", err)
	os.Exit(2)
}
