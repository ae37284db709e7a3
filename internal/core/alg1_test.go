package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"adaserve/internal/mathutil"
)

// chainTree builds a simple chain with geometric path probabilities.
func chainTree(t *testing.T, probs ...float64) *SliceTree {
	t.Helper()
	parents := make([]int, len(probs)+1)
	ps := make([]float64, len(probs)+1)
	parents[0], ps[0] = -1, 1
	for i, p := range probs {
		parents[i+1] = i
		ps[i+1] = p
	}
	st, err := NewSliceTree(parents, ps)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSliceTreeValidation(t *testing.T) {
	if _, err := NewSliceTree([]int{-1, 0}, []float64{1, 0.5}); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	if _, err := NewSliceTree([]int{0, 0}, []float64{1, 0.5}); err == nil {
		t.Error("root with parent 0 accepted")
	}
	if _, err := NewSliceTree([]int{-1, 0}, []float64{1, 1.5}); err == nil {
		t.Error("child prob above parent accepted")
	}
	if _, err := NewSliceTree([]int{-1, 2}, []float64{1, 0.5}); err == nil {
		t.Error("forward parent reference accepted")
	}
	if _, err := NewSliceTree(nil, nil); err == nil {
		t.Error("empty tree accepted")
	}
}

func TestOptimalTreesSingleRequestGreedy(t *testing.T) {
	// Root -> {0.7 -> 0.5, 0.2}: with budget 3 and no SLO pressure, pick
	// the two highest-f nodes: 0.7 and 0.5.
	st := MustSliceTree([]int{-1, 0, 1, 0}, []float64{1, 0.7, 0.5, 0.2})
	sel, err := OptimalTrees([]ProbTree{st}, []float64{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := ExpectedAccept(st, sel[0])
	if math.Abs(got-2.2) > 1e-9 {
		t.Fatalf("E[acc] = %g, want 2.2 (root+0.7+0.5)", got)
	}
}

func TestOptimalTreesRespectsSLOFirst(t *testing.T) {
	// Two requests; request 1 has a high threshold. With budget 4 (2 roots
	// + 2 nodes), both extra nodes must go to request 1 even though request
	// 0 owns the globally best node.
	t0 := chainTree(t, 0.9, 0.8)
	t1 := chainTree(t, 0.6, 0.5)
	sel, err := OptimalTrees([]ProbTree{t0, t1}, []float64{0, 2.1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel[1]) != 3 {
		t.Fatalf("request 1 got %d nodes, want 3 (root+2)", len(sel[1]))
	}
	if len(sel[0]) != 1 {
		t.Fatalf("request 0 got %d nodes, want just the root", len(sel[0]))
	}
	if got := ExpectedAccept(t1, sel[1]); got < 2.1 {
		t.Fatalf("request 1 E[acc] %g below threshold", got)
	}
}

func TestOptimalTreesInvalidWhenInfeasible(t *testing.T) {
	t0 := chainTree(t, 0.5, 0.4)
	// Threshold 2.5 needs more than root+2 nodes, but the budget is 2.
	_, err := OptimalTrees([]ProbTree{t0}, []float64{2.5}, 2)
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("want ErrInvalid, got %v", err)
	}
	// Budget below one root per request is infeasible outright.
	if _, err := OptimalTrees([]ProbTree{t0, t0}, []float64{0, 0}, 1); !errors.Is(err, ErrInvalid) {
		t.Fatalf("want ErrInvalid for budget < n, got %v", err)
	}
}

func TestOptimalTreesExhaustedOracle(t *testing.T) {
	// A finite tree whose total mass cannot reach the threshold.
	t0 := chainTree(t, 0.3)
	_, err := OptimalTrees([]ProbTree{t0}, []float64{5}, 100)
	if !errors.Is(err, ErrInvalid) {
		t.Fatalf("want ErrInvalid, got %v", err)
	}
}

func TestOptimalTreesSpendsFullBudget(t *testing.T) {
	t0 := chainTree(t, 0.9, 0.8, 0.7, 0.6, 0.5)
	sel, err := OptimalTrees([]ProbTree{t0}, []float64{0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel[0]) != 4 {
		t.Fatalf("selected %d nodes with budget 4", len(sel[0]))
	}
}

func TestOptimalTreesConnectivity(t *testing.T) {
	rng := mathutil.NewRNG(7)
	for trial := 0; trial < 50; trial++ {
		st := randomSliceTree(rng, 20)
		sel, err := OptimalTrees([]ProbTree{st}, []float64{0}, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !isConnected(st, sel[0]) {
			t.Fatalf("trial %d: selection %v not connected", trial, sel[0])
		}
	}
}

// TestOptimalTreesBruteForce is the Appendix C optimality check: on small
// random instances, Algorithm 1's objective equals the best over ALL valid
// (connected, budgeted, threshold-satisfying) selections found by brute
// force, and Algorithm 1 declares INVALID exactly when brute force finds
// nothing feasible.
func TestOptimalTreesBruteForce(t *testing.T) {
	rng := mathutil.NewRNG(99)
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(2)
		trees := make([]ProbTree, n)
		slices := make([]*SliceTree, n)
		for i := range trees {
			st := randomSliceTree(rng, 5+rng.Intn(3))
			trees[i] = st
			slices[i] = st
		}
		thresholds := make([]float64, n)
		for i := range thresholds {
			thresholds[i] = rng.Float64() * 2.2
		}
		budget := n + rng.Intn(5)

		got, err := OptimalTrees(trees, thresholds, budget)
		bestObj, feasible := bruteForceBest(slices, thresholds, budget)

		if errors.Is(err, ErrInvalid) {
			if feasible {
				t.Fatalf("trial %d: algorithm INVALID but brute force found %g", trial, bestObj)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !feasible {
			t.Fatalf("trial %d: algorithm succeeded but brute force says infeasible", trial)
		}
		var obj float64
		for i := range got {
			e := ExpectedAccept(trees[i], got[i])
			if e < thresholds[i]-1e-9 {
				t.Fatalf("trial %d: request %d threshold %g unmet (%g)", trial, i, thresholds[i], e)
			}
			obj += e
		}
		if obj < bestObj-1e-9 {
			t.Fatalf("trial %d: algorithm objective %g < brute force %g", trial, obj, bestObj)
		}
	}
}

// bruteForceBest enumerates all connected selections (roots forced) within
// the budget and returns the best total E[acc] meeting every threshold.
func bruteForceBest(trees []*SliceTree, thresholds []float64, budget int) (float64, bool) {
	// Enumerate per-tree candidate subsets (connected, containing root).
	type subset struct {
		size int
		e    float64
	}
	perTree := make([][]subset, len(trees))
	for i, st := range trees {
		n := st.Len()
		for mask := 0; mask < 1<<n; mask++ {
			if mask&1 == 0 {
				continue // root required
			}
			ok := true
			var e float64
			size := 0
			for b := 0; b < n; b++ {
				if mask&(1<<b) == 0 {
					continue
				}
				if b != 0 && mask&(1<<st.Parents[b]) == 0 {
					ok = false
					break
				}
				e += st.Probs[b]
				size++
			}
			if ok && size <= budget {
				perTree[i] = append(perTree[i], subset{size: size, e: e})
			}
		}
	}
	best, feasible := 0.0, false
	var rec func(i, used int, total float64, allMeet bool)
	rec = func(i, used int, total float64, allMeet bool) {
		if used > budget {
			return
		}
		if i == len(trees) {
			if allMeet && (!feasible || total > best) {
				best, feasible = total, true
			}
			return
		}
		for _, s := range perTree[i] {
			rec(i+1, used+s.size, total+s.e, allMeet && s.e >= thresholds[i]-1e-12)
		}
	}
	rec(0, 0, 0, true)
	return best, feasible
}

// randomSliceTree builds a random valid probability tree of n nodes.
func randomSliceTree(rng *mathutil.RNG, n int) *SliceTree {
	parents := make([]int, n)
	probs := make([]float64, n)
	parents[0], probs[0] = -1, 1
	for i := 1; i < n; i++ {
		p := rng.Intn(i)
		parents[i] = p
		probs[i] = probs[p] * (0.1 + 0.85*rng.Float64())
	}
	st, err := NewSliceTree(parents, probs)
	if err != nil {
		panic(err)
	}
	return st
}

func isConnected(st *SliceTree, sel []int) bool {
	in := map[int]bool{}
	for _, id := range sel {
		in[id] = true
	}
	if !in[0] {
		return false
	}
	for _, id := range sel {
		if id != 0 && !in[st.Parents[id]] {
			return false
		}
	}
	return true
}

func TestOptimalTreesMismatchedInputs(t *testing.T) {
	t0 := chainTree(t, 0.5)
	if _, err := OptimalTrees([]ProbTree{t0}, []float64{0, 0}, 5); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

// ExpectedAccept sums f(v) over a selection on tree t: E[acc(T)] per
// Theorem 3.1.
func ExpectedAccept(t ProbTree, nodes []int) float64 {
	var s float64
	for _, id := range nodes {
		s += t.PathProb(id)
	}
	return s
}

// SliceTree is an explicit finite ProbTree for brute-force verification:
// parent links and path probabilities given as slices.
type SliceTree struct {
	// Parents[i] is node i's parent; Parents[0] must be -1.
	Parents []int
	// Probs[i] is f(node i); Probs[0] must be 1.
	Probs []float64

	children [][]int
}

// NewSliceTree validates and indexes an explicit tree.
func NewSliceTree(parents []int, probs []float64) (*SliceTree, error) {
	if len(parents) != len(probs) || len(parents) == 0 {
		return nil, fmt.Errorf("core: slice tree needs equal non-empty parents/probs")
	}
	if parents[0] != -1 || probs[0] != 1 {
		return nil, fmt.Errorf("core: slice tree root must have parent -1 and prob 1")
	}
	st := &SliceTree{Parents: parents, Probs: probs, children: make([][]int, len(parents))}
	for i := 1; i < len(parents); i++ {
		p := parents[i]
		if p < 0 || p >= i {
			return nil, fmt.Errorf("core: node %d has invalid parent %d (must precede it)", i, p)
		}
		if probs[i] > probs[p] {
			return nil, fmt.Errorf("core: node %d prob %g exceeds parent prob %g", i, probs[i], probs[p])
		}
		st.children[p] = append(st.children[p], i)
	}
	return st, nil
}

// MustSliceTree panics on error.
func MustSliceTree(parents []int, probs []float64) *SliceTree {
	st, err := NewSliceTree(parents, probs)
	if err != nil {
		panic(err)
	}
	return st
}

// Children implements ProbTree.
func (s *SliceTree) Children(node int) []int { return s.children[node] }

// PathProb implements ProbTree.
func (s *SliceTree) PathProb(node int) float64 { return s.Probs[node] }

// Len returns the node count.
func (s *SliceTree) Len() int { return len(s.Parents) }
