package serve

import "math"

// instIndex is a fixed-size tournament tree over a run's instances, keyed by
// (key, ID): its root names the instance with the smallest key, the lowest
// ID on ties. The driver keys an instance by its clock while it has work and
// by +Inf otherwise (Instance.key), and keeps every stored key a lower bound
// of that true key (see Server.next).
type instIndex struct {
	// key[i] is instance i's stored key. Its length, the leaf count, is the
	// smallest power of two at or above the instance count; the leaves past
	// the instances hold +Inf forever.
	key []float64
	// win[j], 1 <= j < len(key), is the leaf that wins node j's subtree;
	// win[len(key)+i] is leaf i itself.
	win []int32
}

// newInstIndex builds an index over n instances with every key +Inf.
func newInstIndex(n int) *instIndex {
	size := 1
	for size < n {
		size *= 2
	}
	x := &instIndex{key: make([]float64, size), win: make([]int32, 2*size)}
	for i := range x.key {
		x.key[i] = math.Inf(1)
		x.win[size+i] = int32(i)
	}
	x.rebuild()
	return x
}

// min returns the winning instance and its stored key.
func (x *instIndex) min() (int, float64) {
	i := x.win[1]
	return int(i), x.key[i]
}

// set stores instance i's key and replays its matches up to the root. A key
// set to its current value changes nothing.
func (x *instIndex) set(i int, k float64) {
	if x.key[i] == k {
		return
	}
	x.key[i] = k
	for j := (len(x.key) + i) / 2; j >= 1; j /= 2 {
		x.play(j)
	}
}

// rebuild replays every match, after keys were written in place.
func (x *instIndex) rebuild() {
	for j := len(x.key) - 1; j >= 1; j-- {
		x.play(j)
	}
}

// play decides node j from its children: the right child wins only with a
// strictly smaller key, since every leaf under the left child has a lower ID.
func (x *instIndex) play(j int) {
	a, b := x.win[2*j], x.win[2*j+1]
	if x.key[b] < x.key[a] {
		a = b
	}
	x.win[j] = a
}
