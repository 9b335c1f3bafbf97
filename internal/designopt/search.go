package designopt

// Result is one optimization run's outcome. Every field is
// deterministic for a given grid.
type Result struct {
	// Frontier is the Pareto-optimal set in canonical order.
	Frontier []Point
	// Candidates is the design-space size; every candidate is scored.
	Candidates int
	// Feasible counts the candidates that passed the degenerate and
	// budget guards.
	Feasible int
}

// Optimize scores every candidate of the grid in one serial loop and
// returns the Pareto frontier.
func Optimize(g *Grid) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	ev := NewEvaluator(g)
	res := &Result{Candidates: g.Candidates()}
	var front Frontier
	var pt Point
	for ci := range g.CPUs {
		for ki := range g.Packs {
			for fi := range g.Fabrics {
				for ni := range g.Nodes {
					for ai := range g.Ambients {
						if ev.Eval(ci, ki, fi, ni, ai, &pt) {
							res.Feasible++
							front.Insert(pt)
						}
					}
				}
			}
		}
	}
	res.Frontier = front.Sorted()
	return res, nil
}
