package protocol

import "sort"

// FormStaticGroups partitions ranks 0..n-1 into consecutive groups of the
// given size (Section 4.1, static formation: "based on a user-defined group
// size and the global rank of each process").
func FormStaticGroups(n, size int) [][]int {
	if size <= 0 || size > n {
		size = n
	}
	var groups [][]int
	for lo := 0; lo < n; lo += size {
		hi := min(lo+size, n)
		g := make([]int, 0, hi-lo)
		for r := lo; r < hi; r++ {
			g = append(g, r)
		}
		groups = append(groups, g)
	}
	return groups
}

// FormDynamicGroups derives checkpoint groups from the observed
// communication pattern (Section 4.1, dynamic formation): it finds the
// transitive closure of frequently-communicating processes, splits
// components larger than maxSize, packs small components together, and
// falls back to static formation when the application mainly communicates
// globally.
//
// traffic[i][j] is the number of messages rank i sent to rank j.
func FormDynamicGroups(n, maxSize int, traffic []map[int]int64) [][]int {
	if maxSize <= 0 || maxSize > n {
		maxSize = n
	}
	// Symmetric edge weights and the "frequent" threshold: an edge counts
	// if it carries at least 10% of the busiest pair's traffic.
	weight := make(map[[2]int]int64)
	var maxW int64
	for i := 0; i < n && i < len(traffic); i++ {
		//lint:allow-simdeterminism commutative accumulation and max are order-independent
		for j, w := range traffic[i] {
			if j < 0 || j >= n || j == i {
				continue
			}
			key := [2]int{min(i, j), max(i, j)}
			weight[key] += w
			maxW = max(maxW, weight[key])
		}
	}
	if maxW == 0 {
		return FormStaticGroups(n, maxSize)
	}
	threshold := maxW / 10
	if threshold < 1 {
		threshold = 1
	}
	// Union-find over frequent edges.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	//lint:allow-simdeterminism union-by-minimum-root yields the same forest in any edge order
	for key, w := range weight {
		if w >= threshold {
			union(key[0], key[1])
		}
	}
	comps := make(map[int][]int)
	for r := 0; r < n; r++ {
		root := find(r)
		comps[root] = append(comps[root], r)
	}
	// "If the application mainly does global communication, fall back to
	// static formation to limit the analysis cost."
	//lint:allow-simdeterminism pure existence test; the same component triggers in any order
	for _, c := range comps {
		if len(c) > (n*4)/5 && len(c) > maxSize {
			return FormStaticGroups(n, maxSize)
		}
	}
	// Deterministic component order by smallest member.
	roots := make([]int, 0, len(comps))
	//lint:allow-simdeterminism keys are sorted below before use
	for root := range comps {
		roots = append(roots, root)
	}
	sort.Ints(roots)
	var groups [][]int
	var pack []int // accumulator for small components
	flush := func() {
		if len(pack) > 0 {
			groups = append(groups, pack)
			pack = nil
		}
	}
	for _, root := range roots {
		c := comps[root]
		sort.Ints(c)
		if len(c) >= maxSize {
			flush()
			// Split oversized components into rank-ordered chunks.
			for lo := 0; lo < len(c); lo += maxSize {
				hi := min(lo+maxSize, len(c))
				groups = append(groups, c[lo:hi:hi])
			}
			continue
		}
		// Pack small components together up to maxSize so storage
		// bandwidth is not underutilized (the group-size-1 pathology in
		// Figure 3).
		if len(pack)+len(c) > maxSize {
			flush()
		}
		pack = append(pack, c...)
	}
	flush()
	return groups
}
