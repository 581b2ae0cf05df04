package predict

import (
	"math/rand"
	"slices"
)

// treeNode is one node of a regression tree, stored flat. Leaves have
// feature == -1 and carry the mean target of their samples.
type treeNode struct {
	feature   int
	threshold float64
	left      int32
	right     int32
	value     float64
}

// tree is a CART regression tree grown with variance-reduction splits.
type tree struct {
	nodes []treeNode
}

// growConfig bundles the per-tree growth parameters.
type growConfig struct {
	maxDepth    int
	minLeaf     int
	featureFrac float64
}

// columns is a forest's training matrix, prepared once and shared
// read-only by every tree: feature-major values, and each feature's rows
// presorted by (value, row index).
type columns struct {
	x     [][]float64 // x[f][row]
	y     []float64
	order [][]int32 // order[f]: every row, ascending by (x[f][row], row)
}

func newColumns(rows []Row, nFeat int) *columns {
	c := &columns{x: make([][]float64, nFeat), y: make([]float64, len(rows)), order: make([][]int32, nFeat)}
	for r := range rows {
		c.y[r] = rows[r].LogNs
	}
	for f := range c.x {
		col := make([]float64, len(rows))
		for r := range rows {
			col[r] = rows[r].Features[f]
		}
		ord := make([]int32, len(rows))
		for r := range ord {
			ord[r] = int32(r)
		}
		slices.SortFunc(ord, func(a, b int32) int {
			if va, vb := col[a], col[b]; va != vb {
				if va < vb {
					return -1
				}
				return 1
			}
			return int(a - b)
		})
		c.x[f], c.order[f] = col, ord
	}
	return c
}

// grower carries the state of one tree's construction and is reused for
// every tree one worker grows. All randomness flows through rng, nodes are
// expanded depth-first left-to-right, and every sum runs in a fixed order,
// so a tree is a pure function of (data, rng seed).
//
// No node sorts. A node owns the segment [lo,hi) of the sample list and of
// each feature's sorted list; a split stably partitions every list so each
// child again owns one segment, in the same relative order.
type grower struct {
	cols       *columns
	cfg        growConfig
	rng        *rand.Rand
	nodes      []treeNode
	importance []float64 // summed SSE reduction per feature
	featIdx    []int     // scratch for feature subsampling
	chosen     []bool    // per feature: in this node's subset
	mult       []int32   // bootstrap multiplicity per row
	goLeft     []uint8   // per row: 1 if it goes left at the split being applied
	samples    []int32   // the bootstrap sample in draw order
	sorted     []int32   // feature f's sample ordered by (value, row) at [f*n, (f+1)*n)
	scratch    []int32   // right-hand side during a partition
}

func newGrower(cols *columns, cfg growConfig) *grower {
	n, nFeat := len(cols.y), len(cols.x)
	return &grower{
		cols: cols, cfg: cfg,
		rng:     rand.New(rand.NewSource(0)),
		featIdx: make([]int, nFeat),
		chosen:  make([]bool, nFeat),
		mult:    make([]int32, n),
		goLeft:  make([]uint8, n),
		samples: make([]int32, n),
		sorted:  make([]int32, nFeat*n+expandSlack),
		scratch: make([]int32, n),
	}
}

// expandSlack is how many copies of a row grow writes unconditionally.
const expandSlack = 4

// grow fits one tree on a bootstrap sample of len(rows) draws from an rng
// seeded with seed, which then drives feature subsampling. importance
// accumulates each split's SSE reduction into the split feature's slot.
func (g *grower) grow(seed int64, importance []float64) *tree {
	g.rng.Seed(seed)
	n := len(g.samples)
	clear(g.mult)
	for i := range g.samples {
		r := int32(g.rng.Intn(n))
		g.samples[i] = r
		g.mult[r]++
	}
	// Emitting each presorted row once per draw yields exactly the
	// (value, row) order a sort of the sample would; copies of one row
	// are interchangeable, as they carry the same x and y. Feature lists
	// are adjacent and each holds n entries, so one cursor fills them
	// all. Every row is written expandSlack times without a branch and
	// the cursor advances by its multiplicity; the surplus copies land
	// where the next row (or the buffer's slack) overwrites them.
	k := 0
	for _, order := range g.cols.order {
		for _, r := range order {
			m := int(g.mult[r])
			s := g.sorted[k : k+expandSlack]
			s[0], s[1], s[2], s[3] = r, r, r, r // expandSlack copies
			for i := expandSlack; i < m; i++ {
				g.sorted[k+i] = r
			}
			k += m
		}
	}
	g.importance = importance
	g.nodes = g.nodes[:0]
	g.build(0, n, 0)
	return &tree{nodes: slices.Clone(g.nodes)}
}

// build grows the subtree over the samples at [lo,hi) at the given depth
// and returns its node index.
func (g *grower) build(lo, hi, depth int) int32 {
	y := g.cols.y
	sum, sumSq := 0.0, 0.0
	for _, i := range g.samples[lo:hi] {
		sum += y[i]
		sumSq += y[i] * y[i]
	}
	n := float64(hi - lo)
	mean := sum / n
	sse := sumSq - sum*sum/n

	node := int32(len(g.nodes))
	g.nodes = append(g.nodes, treeNode{feature: -1, value: mean})
	if depth >= g.cfg.maxDepth || hi-lo < 2*g.cfg.minLeaf || sse <= 1e-12 {
		return node
	}

	feat, thr, gain := g.bestSplit(lo, hi, sum, sumSq, sse)
	if feat < 0 {
		return node
	}
	g.importance[feat] += gain

	col := g.cols.x[feat]
	nLeft := 0
	for _, r := range g.samples[lo:hi] {
		var l uint8
		if col[r] <= thr {
			l = 1
		}
		g.goLeft[r] = l
		nLeft += int(l)
	}
	if nLeft == 0 || nLeft == hi-lo {
		// Cannot happen with the threshold guard in bestSplit; keep the
		// node a leaf rather than recurse on an empty side.
		return node
	}
	// Stable partitions keep each child's sample order, and so its
	// sum order, and each feature's (value, row) order. Children that
	// must be leaves only sum their samples, so their sorted lists are
	// left as they are.
	g.partition(g.samples[lo:hi])
	if depth+1 < g.cfg.maxDepth && max(nLeft, hi-lo-nLeft) >= 2*g.cfg.minLeaf {
		stride := len(g.samples)
		for f := range g.cols.x {
			g.partition(g.sorted[f*stride+lo : f*stride+hi])
		}
	}
	mid := lo + nLeft
	g.nodes[node].feature = feat
	g.nodes[node].threshold = thr
	g.nodes[node].left = g.build(lo, mid, depth+1)
	g.nodes[node].right = g.build(mid, hi, depth+1)
	return node
}

// partition stably moves the rows marked goLeft to the front of s. Each
// row is written to both sides and only the matching cursor advances, so
// the loop has no data-dependent branch.
func (g *grower) partition(s []int32) {
	right := g.scratch[:len(s)]
	k, j := 0, 0
	for _, r := range s {
		l := int(g.goLeft[r])
		s[k] = r
		right[j] = r
		k += l
		j += 1 - l
	}
	copy(s[k:], right[:j])
}

// bestSplit searches a random feature subset for the (feature, threshold)
// pair with the largest SSE reduction over the samples at [lo,hi).
// Candidate features are scanned in ascending index order and a new best
// must be strictly better, so ties resolve to the lowest feature index /
// lowest threshold deterministically.
func (g *grower) bestSplit(lo, hi int, totSum, totSumSq, parentSSE float64) (int, float64, float64) {
	nFeat := len(g.featIdx)
	k := int(float64(nFeat) * g.cfg.featureFrac)
	if k < 1 {
		k = 1
	}
	if k > nFeat {
		k = nFeat
	}
	for i := range g.featIdx {
		g.featIdx[i] = i
	}
	// Partial Fisher-Yates for the feature subset, then mark the chosen
	// prefix so the scan order is index-ascending.
	for i := 0; i < k; i++ {
		j := i + g.rng.Intn(nFeat-i)
		g.featIdx[i], g.featIdx[j] = g.featIdx[j], g.featIdx[i]
	}
	clear(g.chosen)
	for _, f := range g.featIdx[:k] {
		g.chosen[f] = true
	}

	y := g.cols.y
	stride := len(g.samples)
	bestFeat, bestThr, bestGain := -1, 0.0, 1e-12
	n := float64(hi - lo)
	for f, ok := range g.chosen {
		if !ok {
			continue
		}
		// The (value, row) order makes the prefix-sum order — and so
		// the floating-point result — unique.
		ord := g.sorted[f*stride+lo : f*stride+hi]
		col := g.cols.x[f]

		sumL, sumSqL := 0.0, 0.0
		next := col[ord[0]]
		for pos := 0; pos < len(ord)-1; pos++ {
			yi := y[ord[pos]]
			sumL += yi
			sumSqL += yi * yi
			// Only split between distinct values.
			v := next
			next = col[ord[pos+1]]
			if v == next {
				continue
			}
			if pos+1 < g.cfg.minLeaf || hi-lo-pos-1 < g.cfg.minLeaf {
				continue
			}
			nL := float64(pos + 1)
			nR := n - nL
			sumR := totSum - sumL
			sseL := sumSqL - sumL*sumL/nL
			sseR := (totSumSq - sumSqL) - sumR*sumR/nR
			gain := parentSSE - sseL - sseR
			if gain > bestGain {
				thr := (v + next) / 2
				if thr >= next {
					// The midpoint of two ulp-adjacent values rounds up
					// to the right value, which would leave the right
					// partition empty; split at the left value instead.
					thr = v
				}
				bestFeat = f
				bestThr = thr
				bestGain = gain
			}
		}
	}
	return bestFeat, bestThr, bestGain
}

// predict walks one feature vector to its leaf.
func (t *tree) predict(x []float64) float64 {
	n := int32(0)
	for {
		nd := &t.nodes[n]
		if nd.feature < 0 {
			return nd.value
		}
		if x[nd.feature] <= nd.threshold {
			n = nd.left
		} else {
			n = nd.right
		}
	}
}
