package transform

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/liveness"
)

// EliminateStores removes the writeback of an array whose stored values
// are fully consumed inside the nest and never used afterwards — the
// paper's store elimination (Section 3.3, Figure 7). The store's value
// is forwarded through a fresh scalar to the reads that follow it in
// the iteration; reads that precede the store keep loading the array's
// incoming values (which elimination leaves untouched in memory).
//
// Requirements (all re-validated here):
//   - the array classifies ForwardOnly or ScalarLike in the nest;
//   - it is not live after the nest (no later nest reads it);
//   - the nest contains exactly one store to it, unconditionally
//     executed at the top level of its loop body;
//   - for a ForwardOnly array, the store writes each element once
//     (every enclosing loop variable indexes it), or every read of the
//     array feeds the store itself (a dead accumulator).
func EliminateStores(p *ir.Program, nestIdx int, array string) (*ir.Program, error) {
	cl := liveness.Classify(p, nestIdx, array)
	if cl.Kind != liveness.ForwardOnly && cl.Kind != liveness.ScalarLike {
		return nil, fmt.Errorf("transform: %s is %s in nest %d (%s), cannot eliminate stores",
			array, cl.Kind, nestIdx, cl.Reason)
	}
	live, err := liveness.Analyze(p)
	if err != nil {
		return nil, err
	}
	return eliminateStoresWith(p, nestIdx, array, cl, live)
}

// eliminateStoresWith is EliminateStores with the reuse classification
// and liveness summary supplied by the caller — the entry point for the
// pass manager, which holds both in its analysis cache and must not pay
// for recomputation per candidate array.
func eliminateStoresWith(p *ir.Program, nestIdx int, array string, cl liveness.Class, live *liveness.Info) (*ir.Program, error) {
	if cl.Kind != liveness.ForwardOnly && cl.Kind != liveness.ScalarLike {
		return nil, fmt.Errorf("transform: %s is %s in nest %d (%s), cannot eliminate stores",
			array, cl.Kind, nestIdx, cl.Reason)
	}
	if live.LiveAfter(array, nestIdx) {
		return nil, fmt.Errorf("transform: %s is read after nest %d; its writeback is needed", array, nestIdx)
	}
	uses := liveness.CollectUses(p, p.Nests[nestIdx], array)
	var writes []liveness.Use
	for _, u := range uses {
		if u.Write {
			writes = append(writes, u)
		}
	}
	if len(writes) != 1 {
		return nil, fmt.Errorf("transform: %s has %d stores in nest %d, need exactly 1", array, len(writes), nestIdx)
	}
	if len(writes[0].Guards) != 0 {
		return nil, fmt.Errorf("transform: store to %s is conditional", array)
	}
	// A forward-only array's reads before the store take the array's
	// incoming values, which elimination leaves in memory. That holds
	// only if no earlier iteration stored to the element first. When the
	// store can write one element twice — there is a loop variable it
	// does not index — a read may consume an earlier iteration's store.
	// Only a dead accumulator, whose every read feeds the store itself,
	// survives losing those values.
	if cl.Kind == liveness.ForwardOnly && !injectiveStore(p, writes[0]) &&
		!readsFeedStore(p, p.Nests[nestIdx], writes[0].Ref, uses) {
		return nil, fmt.Errorf("transform: store to %s rewrites elements across iterations of a loop it does not index, and other statements read them", array)
	}

	out := p.Clone()
	tmp := freshName(out, array+"_v")
	out.DeclareScalar(tmp)

	// Rewrite the nest: locate the unique store at the top level of a
	// statement list; turn it into tmp = rhs; forward tmp into every
	// read of the array in the statements after it.
	found := false
	var visit func(ss []ir.Stmt) error
	visit = func(ss []ir.Stmt) error {
		for i, s := range ss {
			switch s := s.(type) {
			case *ir.For:
				if err := visit(s.Body); err != nil {
					return err
				}
			case *ir.If:
				// The store is unconditional, so only recurse for
				// completeness; reads inside branches are handled by
				// the forwarding pass below.
				if err := visit(s.Then); err != nil {
					return err
				}
				if err := visit(s.Else); err != nil {
					return err
				}
			case *ir.Assign:
				if s.LHS.IsScalar() || s.LHS.Name != array {
					continue
				}
				if found {
					return fmt.Errorf("transform: multiple stores to %s", array)
				}
				found = true
				s.LHS = ir.S(tmp)
				// Forward into the rest of this list.
				for _, later := range ss[i+1:] {
					forwardReads([]ir.Stmt{later}, array, tmp)
				}
			case *ir.ReadInput:
				if !s.Target.IsScalar() && s.Target.Name == array {
					return fmt.Errorf("transform: store to %s comes from input; cannot forward", array)
				}
			}
		}
		return nil
	}
	if err := visit(out.Nests[nestIdx].Body); err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("transform: store to %s not found at top level", array)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("transform: store elimination produced invalid program: %w", err)
	}
	return out, nil
}

// forwardReads replaces every read of the array with the scalar.
func forwardReads(ss []ir.Stmt, array, scalar string) {
	replaceAllRefs(ss, array, func(read bool) (ir.Expr, *ir.Ref) {
		if read {
			return ir.V(scalar), nil
		}
		// No writes can appear after the unique store.
		return nil, ir.S(scalar)
	})
}

// injectiveStore reports whether a store writes each element at most
// once per execution of its nest: every enclosing loop variable is the
// sole variable of some subscript, so distinct iterations write distinct
// elements.
func injectiveStore(p *ir.Program, w liveness.Use) bool {
	subs := make([][]string, len(w.Ref.Index))
	for k, ix := range w.Ref.Index {
		a, ok := ir.AffineOf(ix, p.Consts)
		if !ok {
			return false
		}
		subs[k] = a.Vars()
	}
	for _, l := range w.Loops {
		indexed := false
		for _, vars := range subs {
			if len(vars) == 1 && vars[0] == l.Var {
				indexed = true
				break
			}
		}
		if !indexed {
			return false
		}
	}
	return true
}

// readsFeedStore reports whether every read among uses sits in the
// right-hand side of the assignment that stores through lhs.
func readsFeedStore(p *ir.Program, n *ir.Nest, lhs *ir.Ref, uses []liveness.Use) bool {
	st := storeOf(n.Body, lhs)
	if st == nil {
		return false
	}
	own := map[*ir.Ref]bool{}
	// WalkRefs walks statements; a print of the RHS visits its reads.
	ir.WalkRefs([]ir.Stmt{&ir.Print{Arg: st.RHS}}, p, func(r *ir.Ref, _ bool) { own[r] = true })
	for _, u := range uses {
		if !u.Write && !own[u.Ref] {
			return false
		}
	}
	return true
}

// storeOf finds the assignment whose left-hand side is lhs.
func storeOf(ss []ir.Stmt, lhs *ir.Ref) *ir.Assign {
	for _, s := range ss {
		var found *ir.Assign
		switch s := s.(type) {
		case *ir.Assign:
			if s.LHS == lhs {
				return s
			}
		case *ir.For:
			found = storeOf(s.Body, lhs)
		case *ir.If:
			if found = storeOf(s.Then, lhs); found == nil {
				found = storeOf(s.Else, lhs)
			}
		}
		if found != nil {
			return found
		}
	}
	return nil
}
