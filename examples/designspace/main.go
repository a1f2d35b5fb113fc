// designspace demonstrates the designer-interaction loop of the paper's
// §3.5 ("the designer does have manifold possibilities of interaction"):
// sweeping the objective-function factor F, the pre-selection budget
// N_max^c and the number of designer resource sets, and watching how the
// chosen partition moves. Every sweep fans its configuration points out
// on the exploration worker pool (internal/explore) and prints them in
// order — the concurrent sweep renders exactly what a serial one would.
package main

import (
	"context"
	"fmt"
	"log"

	"lppart/internal/apps"
	"lppart/internal/explore"
	"lppart/internal/system"
	"lppart/internal/tech"
)

// point is one configuration point of a sweep.
type point struct {
	label  string
	mutate func(*system.Config)
}

// sweep evaluates appName under every point concurrently and prints the
// outcomes in point order.
func sweep(appName string, points []point) {
	app, err := apps.ByName(appName)
	if err != nil {
		log.Fatal(err)
	}
	evals, err := explore.Map(0, points, func(_ int, pt point) (*system.Evaluation, error) {
		src, err := app.Parse()
		if err != nil {
			return nil, err
		}
		cfg := system.Config{}
		pt.mutate(&cfg)
		return system.EvaluateCtx(context.Background(), src, cfg)
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, ev := range evals {
		line(points[i].label, ev)
	}
}

func line(label string, ev *system.Evaluation) {
	if ev.Partitioned == nil {
		fmt.Printf("  %-22s -> no partition\n", label)
		return
	}
	fmt.Printf("  %-22s -> %s on %s: savings %7.2f%%, time %7.2f%%, %d cells\n",
		label, ev.Decision.Chosen.Region.Label, ev.Decision.Chosen.RS.Name,
		ev.Savings(), ev.TimeChange(), ev.Partitioned.GEQ)
}

func main() {
	fmt.Println("== designer interaction: objective factor F (engine) ==")
	fmt.Println("   (F balances energy against hardware/time constraints, Fig. 1 line 13)")
	var pts []point
	for _, f := range []float64{0.25, 0.5, 1, 2, 4} {
		pts = append(pts, point{fmt.Sprintf("F = %.2f", f),
			func(c *system.Config) { c.Part.F = f }})
	}
	sweep("engine", pts)

	fmt.Println("\n== designer interaction: pre-selection budget N_max^c (MPG) ==")
	fmt.Println("   (fewer pre-selected clusters mean less synthesis effort, Fig. 1 line 5)")
	pts = nil
	for _, n := range []int{1, 2, 5, 10} {
		pts = append(pts, point{fmt.Sprintf("N_max^c = %d", n),
			func(c *system.Config) { c.Part.MaxClusters = n }})
	}
	sweep("MPG", pts)

	fmt.Println("\n== designer interaction: resource-set richness (digs) ==")
	fmt.Println("   (the paper's designers supply 3-5 hardware budgets, Fig. 1 line 7)")
	all := tech.DefaultResourceSets()
	pts = nil
	for _, n := range []int{1, 2, 3, 5} {
		sets := all[:n]
		pts = append(pts, point{fmt.Sprintf("%d set(s)", n),
			func(c *system.Config) { c.Part.ResourceSets = sets }})
	}
	sweep("digs", pts)

	fmt.Println("\n== designer interaction: hardware budget (trick) ==")
	pts = nil
	for _, geq := range []int{4000, 10000, 16000, 32000} {
		pts = append(pts, point{fmt.Sprintf("budget %d cells", geq),
			func(c *system.Config) { c.Part.GEQBudget = geq }})
	}
	sweep("trick", pts)
}
