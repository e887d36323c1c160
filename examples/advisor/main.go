// Advisor: bandwidth-based performance tuning, the workflow the
// paper's related-work section attributes to the full compiler
// strategy — measure a program's balance, identify the binding
// resource, apply the matching transformation, and verify the gain.
//
//	go run ./examples/advisor
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/balance"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/transform"
)

// patient is one program with its diagnosis's remedy, a pass pipeline
// spec (the same registry bwopt -passes and bwserved accept).
type patient struct {
	name     string
	src      string
	remedy   string
	pipeline string
}

var patients = []patient{
	{
		name: "producer-consumer chain",
		src: `
program chain
const N = 400000
array t1[N]
array t2[N]
scalar s
loop P1 { for i = 0, N-1 { read t1[i] } }
loop P2 { for i = 0, N-1 { t2[i] = t1[i] * 0.5 + 1 } }
loop P3 {
  s = 0
  for i = 0, N-1 { s = s + t2[i] }
  print s
}
`,
		remedy:   "fuse + contract + eliminate stores (the paper's pipeline)",
		pipeline: transform.DefaultPipelineSpec,
	},
	{
		name: "row-first matrix walk",
		src: `
program rowwalk
const N = 3072
array a[N,N]
scalar s
loop Walk {
  for i = 0, N-1 {
    for j = 0, N-1 { s = s + a[i,j] }
  }
}
loop Out { print s }
`,
		remedy:   "loop interchange (stride fix)",
		pipeline: "interchange:Walk:i",
	},
	{
		name: "parallel update streams",
		// N chosen so the allocation stride (8N + guard) is a multiple
		// of the 4 MiB L2: all three streams land in the same sets of
		// the 2-way cache and thrash — the layout regrouping fixes.
		src: `
program streams
const N = 524272
array x[N]
array y[N]
array z[N]
loop U {
  for i = 0, N-1 {
    x[i] = x[i] + 0.25
    y[i] = y[i] + 0.25
    z[i] = z[i] + 0.25
  }
}
`,
		remedy:   "inter-array data regrouping (one interleaved stream)",
		pipeline: "regroup:x+y+z",
	},
}

func main() {
	spec := machine.Origin2000()
	t := &report.Table{
		Title:   "bandwidth tuning advisor (Origin2000 model)",
		Headers: []string{"program", "bottleneck", "CPU bound", "remedy", "speedup"},
	}
	for _, pt := range patients {
		p, err := lang.Parse(pt.src)
		if err != nil {
			log.Fatal(err)
		}
		q, outcome, err := transform.OptimizeVerified(p, transform.Config{Pipeline: pt.pipeline})
		if err == nil && len(outcome.Skipped) > 0 {
			err = outcome.Skipped[0]
		}
		if err != nil {
			log.Fatal(err)
		}
		pair, err := balance.MeasurePair(context.Background(), p, q, nil,
			[]machine.Spec{spec}, balance.Options{}, 0)
		if err != nil {
			log.Fatal(err)
		}
		before, after := pair.Before[0], pair.After[0]
		t.AddRow(pt.name, before.Bottleneck,
			fmt.Sprintf("%.0f%%", 100*before.CPUUtilizationBound),
			pt.remedy, report.F(balance.Speedup(before, after), 2))
	}
	fmt.Print(t)
	fmt.Println()
	fmt.Println("Each diagnosis comes from the balance model (Section 2 of the")
	fmt.Println("paper); each remedy is one of the implemented transformations;")
	fmt.Println("each speedup is measured on the simulated machine, with results")
	fmt.Println("checked for semantic equivalence.")
}
