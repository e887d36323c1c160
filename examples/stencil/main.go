// Stencil: a four-stage image/signal pipeline — the kind of
// producer-consumer loop chain the paper's introduction motivates.
// Written naively, every stage streams a full temporary array through
// memory; the compiler strategy fuses the chain and dissolves every
// temporary into scalars, collapsing memory traffic to the input
// stream alone.
//
//	go run ./examples/stencil
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/balance"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/report"
)

const src = `
program stencil
const N = 1000000
array raw[N]
array smooth[N]
array grad[N]
array mask[N]
scalar energy

# Stage 1: acquire the signal.
loop Acquire {
  for i = 0, N - 1 { read raw[i] }
}

# Stage 2: smooth with a causal 2-tap filter.
loop Smooth {
  for i = 0, N - 1 {
    if i >= 1 {
      smooth[i] = 0.5 * raw[i] + 0.5 * raw[i-1]
    } else {
      smooth[i] = raw[i]
    }
  }
}

# Stage 3: gradient magnitude.
loop Gradient {
  for i = 0, N - 1 {
    if i >= 1 {
      grad[i] = abs(smooth[i] - smooth[i-1])
    } else {
      grad[i] = 0
    }
  }
}

# Stage 4: threshold mask and total energy.
loop Threshold {
  energy = 0
  for i = 0, N - 1 {
    if grad[i] > 0.1 {
      mask[i] = 1
    } else {
      mask[i] = 0
    }
    energy = energy + grad[i] * mask[i]
  }
  print energy
}
`

func main() {
	p, err := lang.Parse(src)
	if err != nil {
		log.Fatal(err)
	}
	q, actions, err := core.Optimize(p)
	if err != nil {
		log.Fatal(err)
	}
	// One checked measurement: it fails if the optimized pipeline
	// prints a different energy.
	pair, err := balance.MeasurePair(context.Background(), p, q, nil,
		[]machine.Spec{machine.Origin2000()}, balance.Options{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	before, after := pair.Before[0], pair.After[0]

	fmt.Println("applied transformations:")
	for _, a := range actions {
		fmt.Println(" ", a)
	}
	fmt.Println("\noptimized program:")
	fmt.Println(q)

	t := &report.Table{
		Title:   "stencil pipeline: naive vs bandwidth-optimized",
		Headers: []string{"", "arrays", "array storage", "mem traffic", "predicted time"},
	}
	t.AddRow("naive", len(p.Arrays), report.Bytes(p.TotalArrayBytes()),
		report.Bytes(before.MemoryBytes), report.Seconds(before.Time.Total))
	t.AddRow("optimized", len(q.Arrays), report.Bytes(q.TotalArrayBytes()),
		report.Bytes(after.MemoryBytes), report.Seconds(after.Time.Total))
	t.AddNote("speedup %.2fx; results identical: true", balance.Speedup(before, after))
	fmt.Print(t)
}
