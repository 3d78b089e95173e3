// Traceability audit: run the pipeline with a token honeypot sample,
// print its traceability tables, then drill into individual verdicts —
// which bots request data-exposing permissions while disclosing nothing
// (the 95.67% broken-traceability headline).
//
//	go run ./examples/traceability_audit
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/traceability"
)

func main() {
	log.SetFlags(0)

	// The traceability tables need no honeypot: test one bot, briefly.
	auditor, err := core.NewAuditor(core.Options{
		Seed:     7,
		NumBots:  600,
		Honeypot: core.HoneypotOptions{Sample: 1, Settle: 50 * time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer auditor.Close()

	res, err := auditor.RunAllContext(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	records := res.Records
	report.Table2(os.Stdout, res.Table2)
	fmt.Println()
	report.DataTypes(os.Stdout, res.DataTypes)

	// Drill-down: the most dangerous broken-traceability bots — admin
	// permission, not a word of disclosure.
	var an traceability.Analyzer
	fmt.Println("\nWorst offenders (administrator permission, broken traceability):")
	shown := 0
	for _, r := range records {
		if r == nil || !r.PermsValid || !r.Perms.IsAdmin() {
			continue
		}
		v := an.AnalyzePolicy(r.PolicyText, r.Perms)
		if v.HasPolicy {
			continue
		}
		fmt.Printf("  %-24s exposes: %v\n", r.Name, v.UndisclosedPerms)
		if shown++; shown >= 8 {
			break
		}
	}

	// And a live policy, with what the keyword analyzer found in it.
	for _, r := range records {
		if r == nil || r.PolicyText == "" {
			continue
		}
		v := an.AnalyzePolicy(r.PolicyText, r.Perms)
		fmt.Printf("\nSample policy for %s — class %s, matched keywords:\n", r.Name, v.Class)
		for cat, hits := range v.Hits {
			fmt.Printf("  %-8s <- %v\n", cat, hits)
		}
		break
	}
}
