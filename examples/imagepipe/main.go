// imagepipe studies the whole-system effects the paper emphasizes ("a
// differently partitioned system might have different access patterns to
// caches and main memory"): it runs the digs image-smoothing application
// across cache geometries and shows how the initial design's cache
// thrashing — and therefore the value of offloading — depends on the
// memory system, not just the µP core.
package main

import (
	"context"
	"fmt"
	"log"

	"lppart/internal/apps"
	"lppart/internal/cache"
	"lppart/internal/system"
)

func main() {
	app, err := apps.ByName("digs")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("== %s: %s ==\n\n", app.Name, app.Description)

	geoms := []struct {
		name string
		d    cache.Config
	}{
		{"d-cache 1 KiB", cache.Config{Sets: 32, Assoc: 2, LineWords: 4, WriteBack: true}},
		{"d-cache 2 KiB (default)", cache.DefaultDCache()},
		{"d-cache 8 KiB", cache.Config{Sets: 256, Assoc: 2, LineWords: 4, WriteBack: true}},
		{"d-cache 32 KiB", cache.Config{Sets: 1024, Assoc: 2, LineWords: 4, WriteBack: true}},
	}
	fmt.Printf("%-26s %12s %12s %10s | %9s %9s %8s\n",
		"geometry", "mem (init)", "d$ hit rate", "E total", "Sav%", "Chg%", "cells")
	for _, g := range geoms {
		src, err := app.Parse()
		if err != nil {
			log.Fatal(err)
		}
		ev, err := system.EvaluateCtx(context.Background(), src, system.Config{DCache: g.d})
		if err != nil {
			log.Fatal(err)
		}
		geq := 0
		if ev.Partitioned != nil {
			geq = ev.Partitioned.GEQ
		}
		fmt.Printf("%-26s %12v %12.4f %10v | %8.2f%% %8.2f%% %8d\n",
			g.name, ev.Initial.EMem, ev.Initial.DStats.HitRate(),
			ev.Initial.Total(), ev.Savings(), ev.TimeChange(), geq)
	}

	fmt.Println("\nReading the table: the 12 KiB image thrashes small data caches,")
	fmt.Println("so the initial design wastes main-memory energy that the ASIC core")
	fmt.Println("(which streams the image once through its local buffer) does not —")
	fmt.Println("with a big enough cache the initial design improves and the win of")
	fmt.Println("partitioning shrinks. This is footnote 2 of the paper in action.")
}
