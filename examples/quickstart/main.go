// Quickstart: the minimal end-to-end tour of the low-power partitioning
// framework. It writes a small DSP application in the behavioral DSL,
// evaluates the initial (all-software) design, runs the paper's
// partitioning algorithm, and prints the resulting whole-system energy
// comparison — the same flow the DAC'99 paper's Fig. 5 describes.
package main

import (
	"context"
	"fmt"
	"log"

	"lppart/internal/behav"
	"lppart/internal/report"
	"lppart/internal/system"
)

// A small FIR-like kernel: generate samples, filter them (the hot loop a
// designer would expect to move into hardware), then summarize.
const source = `
const N = 512;
var in[N]; var out[N];
var energy;

func main() {
	var i; var seed; var acc;

	# Produce the input samples (stays in software).
	seed = 7;
	for i = 0; i < N; i = i + 1 {
		seed = seed * 1103515245 + 12345;
		in[i] = ((seed >> 16) & 255) - 128;
	}

	# The filter kernel: a multiply-heavy sliding window.
	for i = 2; i < N - 2; i = i + 1 {
		acc = in[i-2] * 3 + in[i-1] * 7 + in[i] * 11 + in[i+1] * 7 + in[i+2] * 3;
		out[i] = acc >> 5;
	}

	# Consume the result (stays in software).
	energy = 0;
	for i = 0; i < N; i = i + 1 {
		energy = energy + out[i] * out[i];
	}
}
`

func main() {
	// 1. Parse the behavioral description.
	prog, err := behav.Parse("quickstart", source)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Run the complete design flow: profile, measure the all-software
	//    design, partition (Fig. 1), co-simulate the chosen design, and
	//    verify the two designs compute identical results.
	ev, err := system.EvaluateCtx(context.Background(), prog, system.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Inspect the decision.
	fmt.Println("partitioning decision trail:")
	fmt.Println(ev.Decision.Trail())

	if ev.Partitioned == nil {
		fmt.Println("no beneficial hardware/software partition found")
		return
	}
	fmt.Println(report.Table1([]*system.Evaluation{ev}))
	fmt.Printf("energy saving: %.2f%%   execution-time change: %.2f%%   hardware: %d cells\n",
		ev.Savings(), ev.TimeChange(), ev.Partitioned.GEQ)
}
