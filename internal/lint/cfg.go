package lint

import "go/ast"

// CFG is a per-function control-flow summary: for every statement it
// records its following sibling and its enclosing control statement, so
// the continuation of any statement — everything that may execute after
// it completes — can be walked without re-deriving block structure at
// each query. It deliberately over-approximates conditions (both arms
// of an if are considered executable) and under-approximates rare
// transfers (goto, fallthrough): the clients are lint heuristics asking
// "can a sort still run after this loop?", where an over-approximated
// "yes" merely keeps an existing accepted idiom accepted.
//
// Loop back-edges are modeled: a statement that ends a loop body
// continues into the loop's own body again as well as past the loop,
// so a sort placed earlier in an enclosing loop's body is correctly
// visible from a range statement later in that body.
type CFG struct {
	next  map[ast.Stmt]ast.Stmt // following sibling in the enclosing list
	owner map[ast.Stmt]ast.Stmt // enclosing control statement (nil at function depth)
}

// FuncCFG returns the memoized CFG of one of the package's function
// declarations, building it on first use. The cache lives on the
// Package so every check shares one CFG per function.
func (p *Package) FuncCFG(fd *ast.FuncDecl) *CFG {
	if p.cfgs == nil {
		p.cfgs = make(map[*ast.FuncDecl]*CFG)
	}
	if g, ok := p.cfgs[fd]; ok {
		return g
	}
	g := &CFG{next: map[ast.Stmt]ast.Stmt{}, owner: map[ast.Stmt]ast.Stmt{}}
	if fd.Body != nil {
		g.index(fd.Body.List, nil)
	}
	p.cfgs[fd] = g
	return g
}

// index wires one statement list under its owning control statement,
// recursing into nested bodies.
func (g *CFG) index(list []ast.Stmt, owner ast.Stmt) {
	for i, s := range list {
		if i+1 < len(list) {
			g.next[s] = list[i+1]
		}
		g.owner[s] = owner
		g.indexStmt(s)
	}
}

// indexStmt recurses into the nested statement lists of a compound
// statement, each owned by the compound statement itself.
func (g *CFG) indexStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		g.index(s.List, s)
	case *ast.IfStmt:
		g.index(s.Body.List, s)
		if s.Else != nil {
			g.index([]ast.Stmt{s.Else}, s)
		}
	case *ast.ForStmt:
		g.index(s.Body.List, s)
	case *ast.RangeStmt:
		g.index(s.Body.List, s)
	case *ast.SwitchStmt:
		g.index(s.Body.List, s)
	case *ast.TypeSwitchStmt:
		g.index(s.Body.List, s)
	case *ast.SelectStmt:
		g.index(s.Body.List, s)
	case *ast.CaseClause:
		g.index(s.Body, s)
	case *ast.CommClause:
		g.index(s.Body, s)
	case *ast.LabeledStmt:
		g.index([]ast.Stmt{s.Stmt}, s)
	}
}

// ReachableAfter visits every statement that may begin executing
// strictly after s completes (or exits early): following siblings and
// their nested statements, loop re-entries of enclosing loops, and the
// continuations of enclosing control statements. Visits stop along a
// sibling chain at an unconditional transfer (return, break, continue,
// goto) — nothing after it in that list runs.
func (g *CFG) ReachableAfter(s ast.Stmt, visit func(ast.Stmt)) {
	seen := map[ast.Stmt]bool{}     // statements already visited
	expanded := map[ast.Stmt]bool{} // statements whose continuation was walked
	var cont func(ast.Stmt)
	addExec := func(t ast.Stmt) {
		ast.Inspect(t, func(n ast.Node) bool {
			if st, ok := n.(ast.Stmt); ok && !seen[st] {
				seen[st] = true
				visit(st)
			}
			return true
		})
	}
	cont = func(t ast.Stmt) {
		if expanded[t] {
			// Already walked from here (loop re-entry converged).
			return
		}
		expanded[t] = true
		if nx, ok := g.next[t]; ok {
			addExec(nx)
			if !terminal(nx) {
				cont(nx)
			}
			return
		}
		ow := g.owner[t]
		if ow == nil {
			return // function exit
		}
		switch ow.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			// Back edge: the whole loop body may run again, then
			// whatever follows the loop.
			addExec(ow)
		}
		cont(ow)
	}
	cont(s)
}

// terminal reports whether the statement unconditionally transfers
// control, so no following sibling in its list can execute.
func terminal(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.LabeledStmt:
		return terminal(s.Stmt)
	}
	return false
}
