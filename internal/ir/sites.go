package ir

import "strings"

// Attribution sites. Every array reference in a program carries a Site
// ID (Ref.Site) naming its textual occurrence; the simulator buckets
// hit/miss/byte counters by that ID so traffic can be attributed to the
// array, nest, and reference that caused it. IDs are stable across
// Clone and subst (CloneRef copies them), so a ref duplicated by a
// transform — peeling, fusion reordering — keeps its source site and
// its traffic aggregates with the original; a ref synthesized from
// scratch has Site zero until the next AssignSites gives it a fresh ID.

// Site describes one attribution site: a single textual array reference.
type Site struct {
	ID    SiteID
	Array string // referenced array name
	Nest  string // enclosing nest label
	Loops string // enclosing loop variables, outer first, "/"-joined
	Write bool   // store target (Assign LHS or ReadInput)
	Ref   string // concrete syntax of the reference, e.g. "a[i,j]"
}

// SiteTable maps the site IDs present in one program version to their
// descriptions. Lookups of IDs the table has never seen (including 0)
// report ok=false.
type SiteTable struct {
	byID map[SiteID]Site
	max  SiteID
}

// Lookup returns the description of a site ID.
func (t *SiteTable) Lookup(id SiteID) (Site, bool) {
	if t == nil {
		return Site{}, false
	}
	s, ok := t.byID[id]
	return s, ok
}

// Max returns the largest site ID in the table (0 when empty). Dense
// per-site counter arrays size themselves as Max+1.
func (t *SiteTable) Max() SiteID {
	if t == nil {
		return 0
	}
	return t.max
}

// Len returns the number of distinct sites.
func (t *SiteTable) Len() int {
	if t == nil {
		return 0
	}
	return len(t.byID)
}

// Sites returns all site descriptions in ascending ID order.
func (t *SiteTable) Sites() []Site {
	if t == nil {
		return nil
	}
	out := make([]Site, 0, len(t.byID))
	for id := SiteID(1); id <= t.max; id++ {
		if s, ok := t.byID[id]; ok {
			out = append(out, s)
		}
	}
	return out
}

// AssignSites gives every array reference in the program a site ID and
// returns the table describing them. References that already carry an
// ID keep it — re-running after a transform pass only fills in the refs
// the pass synthesized, so surviving sites stay comparable across
// program versions. When transforms have made several refs share one ID
// (a peeled copy, say), the table records the first occurrence and the
// simulator aggregates their traffic under it.
func AssignSites(p *Program) *SiteTable {
	t := &SiteTable{byID: map[SiteID]Site{}}
	// First pass: find the high-water mark so fresh IDs never collide
	// with survivors.
	for _, n := range p.Nests {
		WalkRefs(n.Body, p, func(r *Ref, _ bool) {
			if r.Site > t.max {
				t.max = r.Site
			}
		})
	}
	next := t.max + 1
	for _, n := range p.Nests {
		var loops []string
		var visitExpr func(Expr)
		var visit func([]Stmt)
		record := func(r *Ref, w bool) {
			if r == nil || r.IsScalar() || p.ArrayByName(r.Name) == nil {
				return
			}
			if r.Site == 0 {
				r.Site = next
				next++
			}
			if r.Site > t.max {
				t.max = r.Site
			}
			if _, seen := t.byID[r.Site]; !seen {
				t.byID[r.Site] = Site{
					ID:    r.Site,
					Array: r.Name,
					Nest:  n.Label,
					Loops: strings.Join(loops, "/"),
					Write: w,
					Ref:   refString(r),
				}
			}
		}
		visitExpr = func(e Expr) {
			switch e := e.(type) {
			case *Ref:
				record(e, false)
				for _, ix := range e.Index {
					visitExpr(ix)
				}
			case *Bin:
				visitExpr(e.L)
				visitExpr(e.R)
			case *Neg:
				visitExpr(e.X)
			case *Call:
				for _, a := range e.Args {
					visitExpr(a)
				}
			}
		}
		visit = func(ss []Stmt) {
			for _, s := range ss {
				switch s := s.(type) {
				case *For:
					visitExpr(s.Lo)
					visitExpr(s.Hi)
					loops = append(loops, s.Var)
					visit(s.Body)
					loops = loops[:len(loops)-1]
				case *Assign:
					record(s.LHS, true)
					for _, ix := range s.LHS.Index {
						visitExpr(ix)
					}
					visitExpr(s.RHS)
				case *If:
					visitExpr(s.Cond)
					visit(s.Then)
					visit(s.Else)
				case *ReadInput:
					record(s.Target, true)
					for _, ix := range s.Target.Index {
						visitExpr(ix)
					}
				case *Print:
					visitExpr(s.Arg)
				}
			}
		}
		visit(n.Body)
	}
	return t
}
