// Quickstart: build a two-loop program, measure its balance on the
// Origin2000 model, run the paper's optimization strategy, and compare.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/balance"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
)

func main() {
	// The Section 2.1 pair, built with the IR builder API: one loop
	// updates the array, a second sums it.
	const n = 1_000_000
	p := ir.NewProgram("quickstart")
	p.DeclareConst("N", n)
	p.DeclareArray("a", n)
	p.DeclareScalar("sum")
	p.AddNest("Update",
		ir.Loop("i", ir.N(0), ir.SubE(ir.V("N"), ir.N(1)),
			ir.Let(ir.At("a", ir.V("i")), ir.AddE(ir.At("a", ir.V("i")), ir.N(0.4)))))
	p.AddNest("Reduce",
		ir.Loop("i", ir.N(0), ir.SubE(ir.V("N"), ir.N(1)),
			ir.Acc(ir.S("sum"), ir.At("a", ir.V("i")))),
		ir.Show(ir.V("sum")))

	// The paper's strategy: fuse the loops (one pass over a instead of
	// two), then eliminate the writeback of a (its updated values are
	// fully consumed by the reduction).
	q, actions, err := core.Optimize(p)
	if err != nil {
		log.Fatal(err)
	}
	// Measure both programs on the same machine; the pair fails if the
	// optimized program prints anything the original did not.
	pair, err := balance.MeasurePair(context.Background(), p, q, nil,
		[]machine.Spec{machine.Origin2000()}, balance.Options{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	before, after := pair.Before[0], pair.After[0]

	fmt.Println("=== before optimization ===")
	fmt.Print(before)
	fmt.Println("\n=== applied transformations ===")
	for _, a := range actions {
		fmt.Println(" ", a)
	}
	fmt.Println("\n=== optimized program ===")
	fmt.Println(q)
	fmt.Println("=== after optimization ===")
	fmt.Print(after)
	fmt.Printf("\npredicted speedup: %.2fx\n", balance.Speedup(before, after))
	fmt.Println("results identical: true")
}
