// mpegkernel explores the paper's MPG application in depth: it shows how
// the pre-selection (Fig. 3) ranks the encoder's clusters, how each
// designer resource set (Fig. 1 line 7) changes the utilization rate and
// hardware cost of the motion-estimation cluster, and what the chosen
// partition does to every core's energy.
package main

import (
	"context"
	"fmt"
	"log"

	"lppart/internal/apps"
	"lppart/internal/report"
	"lppart/internal/system"
	"lppart/internal/tech"
)

func main() {
	app, err := apps.ByName("MPG")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== %s: %s ==\n\n", app.Name, app.Description)

	// Full evaluation with the default 5 designer resource sets.
	src, err := app.Parse()
	if err != nil {
		log.Fatal(err)
	}
	ev, err := system.EvaluateCtx(context.Background(), src, system.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ev.Decision.Trail())
	fmt.Println(report.Table1([]*system.Evaluation{ev}))

	// What-if: how does the chosen cluster behave on each resource set?
	fmt.Println("resource-set exploration of the chosen cluster:")
	chosen := ev.Decision.Chosen
	if chosen == nil {
		log.Fatal("no partition chosen")
	}
	for _, c := range ev.Decision.Candidates {
		if c.Region != chosen.Region {
			continue
		}
		for _, se := range c.Evals {
			if se.Err != nil {
				fmt.Printf("  %-10s %s\n", se.RS.Name, se.Reason)
				continue
			}
			fmt.Printf("  %-10s U_ASIC=%.3f U_uP=%.3f GEQ=%-6d OF=%.4f eligible=%v\n",
				se.RS.Name, se.UASIC, se.UMuP, se.GEQ, se.OF, se.Eligible)
		}
	}

	// What-if: a tighter hardware budget forces a cheaper core.
	fmt.Println("\nhardware-budget sweep:")
	for _, budget := range []int{2000, 6000, 16000} {
		cfg := system.Config{}
		cfg.Part.GEQBudget = budget
		src2, err := app.Parse()
		if err != nil {
			log.Fatal(err)
		}
		ev2, err := system.EvaluateCtx(context.Background(), src2, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if ev2.Partitioned == nil {
			fmt.Printf("  budget %6d cells: no feasible partition\n", budget)
			continue
		}
		fmt.Printf("  budget %6d cells: savings %7.2f%%, time %7.2f%%, core %d cells on %s\n",
			budget, ev2.Savings(), ev2.TimeChange(), ev2.Partitioned.GEQ,
			ev2.Decision.Chosen.RS.Name)
	}

	// The library view: what does each resource cost?
	lib := tech.Default()
	fmt.Println("\nresource library (CMOS6-style 0.8u):")
	for k := tech.ResourceKind(0); k < tech.NumResourceKinds; k++ {
		r := lib.Resource(k)
		fmt.Printf("  %-6v %6d GEQ  %8v active  %8v Tcyc\n",
			k, r.GEQ, r.PavActive, r.Tcyc)
	}
}
