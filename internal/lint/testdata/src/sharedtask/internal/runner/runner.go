// Package runner is a sharedtask fixture stub: its import path suffix
// internal/runner is what the analyzer keys on.
package runner

// Map mimics the parallel engine's fan-out entry point.
func Map(jobs, n int, fn func(i int) (int, error)) ([]int, error) {
	out := make([]int, n)
	for i := 0; i < n; i++ {
		v, err := fn(i)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Grid mimics the sweep-grid entry point.
func Grid(jobs, points, variants, reps int, fn func(pt, v, rep int) (int, error)) ([][][]int, error) {
	out := make([][][]int, points)
	for pt := range out {
		out[pt] = make([][]int, variants)
		for v := range out[pt] {
			for rep := 0; rep < reps; rep++ {
				x, err := fn(pt, v, rep)
				if err != nil {
					return nil, err
				}
				out[pt][v] = append(out[pt][v], x)
			}
		}
	}
	return out, nil
}
