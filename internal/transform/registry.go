package transform

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ir"
)

// This file is the declarative pass registry: every pass the pipeline
// can run, by name, with its spec syntax and what it does. The
// registry drives the -passes pipeline string on bwopt and bwsim, the
// bwserved "pipeline" request field and GET /v1/passes, and the default
// OptimizeVerified sequence — one source of truth instead of a
// hardcoded pass order plus a hand-rolled CLI switch.

// PassInfo describes one registered pass.
type PassInfo struct {
	// Name is the registry key and the Action/PassError pass label.
	Name string `json:"name"`
	// Usage is the -passes spec syntax, e.g. "interchange:<nest>:<var>".
	Usage string `json:"usage"`
	// Help is a one-line description.
	Help string `json:"help"`

	// factory instantiates the pass for the given spec arguments (the
	// ":"-separated parts after the name).
	factory func(args []string) (stepRunner, error)
}

// stepRunner executes one instantiated pass against the manager.
type stepRunner func(m *manager)

// DefaultPipelineSpec is the paper's full strategy — the pipeline that
// runs when no explicit -passes string is given: bandwidth-minimal
// fusion, then storage reduction (contraction + shrinking to a
// fixpoint), then store elimination.
const DefaultPipelineSpec = "fuse,reduce-storage,store-elim"

// aliases maps convenience spellings to registry names.
var aliases = map[string]string{
	"storeelim": "store-elim",
	"shrink":    "reduce-storage",
	"peel":      "peel-first",
}

// noArgs wraps a zero-argument pass body as a factory.
func noArgs(name string, run stepRunner) func([]string) (stepRunner, error) {
	return func(args []string) (stepRunner, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("pass %s takes no arguments", name)
		}
		return run, nil
	}
}

// direct wraps a single-shot transformation (one verified checkpoint,
// rolled back on failure) as a pass body. The nest argument, when
// non-empty, is looked up among the program's nests before the
// transformation runs, so a typo surfaces as a crisp diagnostic.
func direct(name, nest, array, note string, fn func(cur *ir.Program) (*ir.Program, error)) stepRunner {
	return func(m *manager) {
		m.runStep(name, nest, array, func(cur *ir.Program) (*ir.Program, []Action, error) {
			if nest != "" {
				if err := checkNestLabel(cur, nest); err != nil {
					return nil, nil, err
				}
			}
			next, err := fn(cur)
			if err != nil {
				return nil, nil, err
			}
			return next, []Action{{Pass: name, Note: note}}, nil
		})
	}
}

var passRegistry = buildRegistry()

func buildRegistry() map[string]*PassInfo {
	list := []*PassInfo{
		{
			Name: "fuse", Usage: "fuse",
			Help:    "bandwidth-minimal loop fusion (recursive-bisection heuristic over the fusion hyper-graph)",
			factory: noArgs("fuse", (*manager).fusePass),
		},
		{
			Name: "reduce-storage", Usage: "reduce-storage",
			Help:    "array contraction and shrinking, iterated to a fixpoint (alias: shrink)",
			factory: noArgs("reduce-storage", (*manager).storagePass),
		},
		{
			Name: "store-elim", Usage: "store-elim",
			Help:    "dead writeback elimination with value forwarding (alias: storeelim)",
			factory: noArgs("store-elim", (*manager).storeElimPass),
		},
		{
			Name: "interchange", Usage: "interchange:<nest>:<var>",
			Help: "swap <var>'s loop with the loop immediately inside it",
			factory: func(args []string) (stepRunner, error) {
				if len(args) != 2 {
					return nil, fmt.Errorf("interchange:<nest>:<var>")
				}
				nest, v := args[0], args[1]
				return direct("interchange", nest, "", "interchange:"+nest+":"+v,
					func(cur *ir.Program) (*ir.Program, error) { return Interchange(cur, nest, v) }), nil
			},
		},
		{
			Name: "distribute", Usage: "distribute:<nest>",
			Help: "split the nest's loop into dependence-respecting pieces",
			factory: func(args []string) (stepRunner, error) {
				if len(args) != 1 {
					return nil, fmt.Errorf("distribute:<nest>")
				}
				nest := args[0]
				return direct("distribute", nest, "", "distribute:"+nest,
					func(cur *ir.Program) (*ir.Program, error) { return Distribute(cur, nest) }), nil
			},
		},
		{
			Name: "peel-first", Usage: "peel-first:<nest>:<var>",
			Help:    "peel the first iteration of <var>'s loop (alias: peel)",
			factory: peelFactory("peel-first", PeelFirst),
		},
		{
			Name: "peel-last", Usage: "peel-last:<nest>:<var>",
			Help:    "peel the last iteration of <var>'s loop",
			factory: peelFactory("peel-last", PeelLast),
		},
		{
			Name: "simplify", Usage: "simplify",
			Help: "fold statically decidable guards",
			factory: noArgs("simplify", func(m *manager) {
				m.runStep("simplify", "", "", func(cur *ir.Program) (*ir.Program, []Action, error) {
					next, folded := SimplifyGuards(cur)
					if folded == 0 {
						return nil, nil, nil // nothing to fold; no checkpoint
					}
					return next, []Action{{Pass: "simplify",
						Note: fmt.Sprintf("%d guards folded", folded)}}, nil
				})
			}),
		},
		{
			Name: "unrolljam", Usage: "unrolljam:<nest>:<var>:<k>",
			Help: "unroll <var>'s loop by factor k and jam the copies",
			factory: func(args []string) (stepRunner, error) {
				if len(args) != 3 {
					return nil, fmt.Errorf("unrolljam:<nest>:<var>:<factor>")
				}
				nest, v := args[0], args[1]
				k, err := strconv.Atoi(args[2])
				if err != nil {
					return nil, fmt.Errorf("unrolljam factor %q: %w", args[2], err)
				}
				return direct("unrolljam", nest, "", "unrolljam:"+nest+":"+v+":"+args[2],
					func(cur *ir.Program) (*ir.Program, error) { return UnrollJam(cur, nest, v, k) }), nil
			},
		},
		{
			Name: "scalarize", Usage: "scalarize:<nest>",
			Help: "register-promote repeated array elements in the nest",
			factory: func(args []string) (stepRunner, error) {
				if len(args) != 1 {
					return nil, fmt.Errorf("scalarize:<nest>")
				}
				nest := args[0]
				return func(m *manager) {
					m.runStep("scalarize", nest, "", func(cur *ir.Program) (*ir.Program, []Action, error) {
						if err := checkNestLabel(cur, nest); err != nil {
							return nil, nil, err
						}
						next, n, err := ScalarizeIteration(cur, nest)
						if err != nil {
							return nil, nil, err
						}
						if n == 0 {
							return nil, nil, nil // nothing promoted; no checkpoint
						}
						return next, []Action{{Pass: "scalarize",
							Note: fmt.Sprintf("%d element groups promoted", n)}}, nil
					})
				}, nil
			},
		},
		{
			Name: "regroup", Usage: "regroup:<a>+<b>[+...]",
			Help: "interleave the named arrays into one padded group",
			factory: func(args []string) (stepRunner, error) {
				if len(args) != 1 {
					return nil, fmt.Errorf("regroup:<a>+<b>[+...]")
				}
				names := strings.Split(args[0], "+")
				return direct("regroup", "", "", "regroup:"+args[0],
					func(cur *ir.Program) (*ir.Program, error) { return RegroupArrays(cur, names) }), nil
			},
		},
	}
	m := make(map[string]*PassInfo, len(list))
	for _, pi := range list {
		if _, dup := m[pi.Name]; dup {
			panic("transform: pass " + pi.Name + " registered twice")
		}
		m[pi.Name] = pi
	}
	return m
}

func peelFactory(name string, peel func(*ir.Program, string, string) (*ir.Program, error)) func([]string) (stepRunner, error) {
	return func(args []string) (stepRunner, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("%s:<nest>:<var>", name)
		}
		nest, v := args[0], args[1]
		return direct(name, nest, "", name+":"+nest+":"+v,
			func(cur *ir.Program) (*ir.Program, error) { return peel(cur, nest, v) }), nil
	}
}

// checkNestLabel reports a nest label the program does not have.
func checkNestLabel(p *ir.Program, nest string) error {
	if p.NestByLabel(nest) == nil {
		return fmt.Errorf("transform: no nest labeled %q", nest)
	}
	return nil
}

// Passes lists the registered passes sorted by name, for CLI usage
// text and the service's GET /v1/passes.
func Passes() []PassInfo {
	out := make([]PassInfo, 0, len(passRegistry))
	for _, pi := range passRegistry {
		out = append(out, *pi)
	}
	sortPassInfos(out)
	return out
}

func sortPassInfos(ps []PassInfo) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Name < ps[j-1].Name; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// LookupPass resolves a pass name (or alias) to its registry entry.
func LookupPass(name string) (PassInfo, bool) {
	if canon, ok := aliases[name]; ok {
		name = canon
	}
	pi, ok := passRegistry[name]
	if !ok {
		return PassInfo{}, false
	}
	return *pi, true
}

// Pipeline is a parsed, instantiated pass sequence ready to run.
type Pipeline struct {
	// Spec is the original pipeline string.
	Spec  string
	steps []pipelineStep
}

type pipelineStep struct {
	info *PassInfo
	spec string
	run  stepRunner
}

// Len reports the number of instantiated passes.
func (pl *Pipeline) Len() int { return len(pl.steps) }

// Canonical is the pipeline's canonical spelling: the trimmed step
// specs joined by commas, with "pipeline" expanded and empty elements
// dropped. It parses back to the same steps, so spellings that differ
// only in whitespace, empty elements or "pipeline" share it (aliases
// are kept as written).
func (pl *Pipeline) Canonical() string {
	specs := make([]string, len(pl.steps))
	for i, st := range pl.steps {
		specs[i] = st.spec
	}
	return strings.Join(specs, ",")
}

// ParsePipeline parses a comma-separated pipeline string into an
// executable pass sequence. Each element is a pass spec from the
// registry (see Passes); "pipeline" expands to DefaultPipelineSpec.
// Empty elements are ignored, so "" yields an empty pipeline.
func ParsePipeline(spec string) (*Pipeline, error) {
	pl := &Pipeline{Spec: spec}
	for _, raw := range strings.Split(spec, ",") {
		s := strings.TrimSpace(raw)
		if s == "" {
			continue
		}
		parts := strings.Split(s, ":")
		name := parts[0]
		if name == "pipeline" {
			if len(parts) != 1 {
				return nil, fmt.Errorf("transform: pass spec %q: pipeline takes no arguments", s)
			}
			def, err := ParsePipeline(DefaultPipelineSpec)
			if err != nil {
				return nil, err
			}
			pl.steps = append(pl.steps, def.steps...)
			continue
		}
		if canon, ok := aliases[name]; ok {
			name = canon
		}
		pi, ok := passRegistry[name]
		if !ok {
			return nil, fmt.Errorf("transform: unknown pass %q (registered: %s)", parts[0], registeredNames())
		}
		run, err := pi.factory(parts[1:])
		if err != nil {
			return nil, fmt.Errorf("transform: pass spec %q: %w", s, err)
		}
		pl.steps = append(pl.steps, pipelineStep{info: pi, spec: s, run: run})
	}
	return pl, nil
}

func registeredNames() string {
	ps := Passes()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}

// PipelineSpec renders the option set as the equivalent pipeline
// string: the default spec filtered to the enabled passes. It is how
// OptimizeVerified runs a Config that sets Options but no Pipeline,
// which only perfbench still does.
func (o Options) PipelineSpec() string {
	var s []string
	if o.Fuse {
		s = append(s, "fuse")
	}
	if o.ReduceStorage {
		s = append(s, "reduce-storage")
	}
	if o.EliminateStores {
		s = append(s, "store-elim")
	}
	return strings.Join(s, ",")
}
