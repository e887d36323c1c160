package kernels

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/lang"
)

// The paper evaluates NAS/SP, a 3000-line ADI solver from the NAS
// Parallel Benchmarks, using hardware counters per subroutine. The real
// benchmark (Fortran, five coupled 3D solution variables, pentadiagonal
// solves in three dimensions) is substituted here by a scaled-down
// ADI-style suite over 2D grids with five solution components: the same
// routine structure (compute_rhs, txinvr, three directional solves,
// pinvr, add), the same many-arrays-touched-per-flop character, and the
// same forward/backward sweep recurrences. Program balance depends on
// arrays-touched per flop and reuse pattern, which the synthetic
// preserves; the NPB numerics are irrelevant to bandwidth accounting
// (the simulator is value-blind). See DESIGN.md's substitution table.

// SPRoutineNames lists the seven routines of the SP-like suite.
var SPRoutineNames = []string{
	"compute_rhs", "txinvr", "x_solve", "y_solve", "z_solve", "pinvr", "add",
}

// spDecls declares the suite's arrays: five solution components, five
// right-hand sides, and three coefficient grids, all n x n.
func spDecls(n int) string {
	s := fmt.Sprintf("const N = %d\n", n)
	for c := 1; c <= 5; c++ {
		s += fmt.Sprintf("array u%d[N,N]\narray rhs%d[N,N]\n", c, c)
	}
	s += "array rho[N,N]\narray qs[N,N]\narray speed[N,N]\n"
	return s
}

// spRoutine returns the loop nests (concrete syntax) of one routine.
func spRoutine(name string) (string, error) {
	switch name {
	case "compute_rhs":
		// Central differences of the five components: many arrays read
		// per flop — the bandwidth-hungry heart of SP.
		body := ""
		for c := 1; c <= 5; c++ {
			body += fmt.Sprintf(`
loop Rhs%[1]d {
  for j = 1, N - 2 {
    for i = 1, N - 2 {
      rhs%[1]d[i,j] = u%[1]d[i+1,j] + u%[1]d[i-1,j] + u%[1]d[i,j+1] + u%[1]d[i,j-1] - 4 * u%[1]d[i,j] + qs[i,j] * rho[i,j]
    }
  }
}
`, c)
		}
		return body, nil
	case "txinvr":
		// Pointwise scaling of the rhs by flow quantities.
		body := ""
		for c := 1; c <= 5; c++ {
			body += fmt.Sprintf(`
loop Tx%[1]d {
  for j = 1, N - 2 {
    for i = 1, N - 2 {
      rhs%[1]d[i,j] = rhs%[1]d[i,j] * rho[i,j] + speed[i,j] * 0.25
    }
  }
}
`, c)
		}
		return body, nil
	case "x_solve":
		// Thomas-style forward elimination and back substitution along
		// i (the unit-stride direction).
		return `
loop XFwd {
  for j = 1, N - 2 {
    for i = 2, N - 2 {
      rhs1[i,j] = rhs1[i,j] - 0.3 * rhs1[i-1,j] * speed[i,j]
      rhs2[i,j] = rhs2[i,j] - 0.3 * rhs2[i-1,j] * speed[i,j]
    }
  }
}
loop XBack {
  for j = 1, N - 2 {
    for ii = 2, N - 2 {
      rhs1[N-1-ii,j] = rhs1[N-1-ii,j] - 0.3 * rhs1[N-ii,j] * qs[N-1-ii,j]
      rhs2[N-1-ii,j] = rhs2[N-1-ii,j] - 0.3 * rhs2[N-ii,j] * qs[N-1-ii,j]
    }
  }
}
`, nil
	case "y_solve":
		// The same solve along j (large stride between iterations).
		return `
loop YFwd {
  for j = 2, N - 2 {
    for i = 1, N - 2 {
      rhs3[i,j] = rhs3[i,j] - 0.3 * rhs3[i,j-1] * speed[i,j]
      rhs4[i,j] = rhs4[i,j] - 0.3 * rhs4[i,j-1] * speed[i,j]
    }
  }
}
loop YBack {
  for jj = 2, N - 2 {
    for i = 1, N - 2 {
      rhs3[i,N-1-jj] = rhs3[i,N-1-jj] - 0.3 * rhs3[i,N-jj] * qs[i,N-1-jj]
      rhs4[i,N-1-jj] = rhs4[i,N-1-jj] - 0.3 * rhs4[i,N-jj] * qs[i,N-1-jj]
    }
  }
}
`, nil
	case "z_solve":
		// The third directional solve (2D proxy: along j on rhs5).
		return `
loop ZFwd {
  for j = 2, N - 2 {
    for i = 1, N - 2 {
      rhs5[i,j] = rhs5[i,j] - 0.3 * rhs5[i,j-1] * rho[i,j]
    }
  }
}
loop ZBack {
  for jj = 2, N - 2 {
    for i = 1, N - 2 {
      rhs5[i,N-1-jj] = rhs5[i,N-1-jj] - 0.3 * rhs5[i,N-jj] * rho[i,N-1-jj]
    }
  }
}
`, nil
	case "pinvr":
		return `
loop Pinvr {
  for j = 1, N - 2 {
    for i = 1, N - 2 {
      rhs2[i,j] = rhs2[i,j] * 0.5 + rhs3[i,j] * 0.25
      rhs4[i,j] = rhs4[i,j] * 0.5 + rhs5[i,j] * 0.25
    }
  }
}
`, nil
	case "add":
		body := ""
		for c := 1; c <= 5; c++ {
			body += fmt.Sprintf(`
loop Add%[1]d {
  for j = 1, N - 2 {
    for i = 1, N - 2 {
      u%[1]d[i,j] = u%[1]d[i,j] + rhs%[1]d[i,j]
    }
  }
}
`, c)
		}
		return body, nil
	}
	return "", fmt.Errorf("kernels: unknown SP routine %q", name)
}

// SPRoutine builds one routine of the SP-like suite as a standalone
// program (for the per-routine bandwidth-utilization experiment).
func SPRoutine(name string, n int) (*ir.Program, error) {
	body, err := spRoutine(name)
	if err != nil {
		return nil, err
	}
	return lang.Parse("program sp_" + name + "\n" + spDecls(n) + body)
}

// SP builds the whole SP-like application: all seven routines in ADI
// order, as one program.
func SP(n int) *ir.Program {
	src := "program sp\n" + spDecls(n)
	for _, r := range SPRoutineNames {
		body, err := spRoutine(r)
		if err != nil {
			panic(err)
		}
		src += body
	}
	return lang.MustParse(src)
}
