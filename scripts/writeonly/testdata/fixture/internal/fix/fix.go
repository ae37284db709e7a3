// Package fix is the write-only checker's fixture: one field of each kind
// the checker must tell apart.
package fix

// Counters mixes write-only fields with fields something reads.
type Counters struct {
	Plain    int     // written by a composite literal only: write-only
	Acc      float64 // only accumulated with op=: write-only
	Bumped   int     // only incremented: write-only
	TestOnly int     // read only by fix_test.go: write-only
	Tagged   int     `json:"tagged"` // read by reflection: kept
	Read     int     // read by cmd/app: kept
	Nested   struct {
		Inner int // read by cmd/app through Nested: kept
		Lost  int // written through Nested only: write-only
	}
}

// Box is generic: reads through an instantiation count for the origin.
type Box[T any] struct {
	Val  T // read by cmd/app through Box[int]: kept
	Seen T // written through Box[int] only: write-only
}

// New fills every field of Counters.
func New() *Counters {
	c := &Counters{Plain: 1, TestOnly: 2, Tagged: 3}
	c.Read = 4
	c.Acc += 0.5
	c.Bumped++
	c.Nested.Inner = 5
	c.Nested.Lost = 6
	return c
}

// NewBox builds a Box.
func NewBox[T any](v T) Box[T] {
	b := Box[T]{Val: v}
	b.Seen = v
	return b
}

// Elems holds fields written through their elements or fed back into
// themselves, which only writes them, and one read through an element.
type Elems struct {
	Set    []int          // only element-assigned: write-only
	Acc    []float64      // only element op=: write-only
	Bumped map[string]int // only element ++: write-only
	Grown  []int          // only appended to itself: write-only
	Cut    []int          // only resliced into itself: write-only
	Peeked []int          // read as x.f[i] on a right-hand side: kept
}

// NewElems writes every field of Elems.
func NewElems() *Elems {
	e := &Elems{Set: make([]int, 2), Acc: make([]float64, 2), Bumped: map[string]int{}, Peeked: []int{3}}
	e.Set[0] = 1
	e.Acc[1] += 0.5
	e.Bumped["a"]++
	e.Grown = append(e.Grown, first(e))
	e.Cut = e.Cut[:0]
	return e
}

func first(e *Elems) int { return e.Peeked[0] }
