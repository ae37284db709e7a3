package serve

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"adaserve/internal/request"
)

var inf = math.Inf(1)

// TestIndexLowestIDWinsTies: among equal keys the lowest ID is the minimum,
// at every fleet size, including sizes that leave padding leaves.
func TestIndexLowestIDWinsTies(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13, 128} {
		x := newInstIndex(n)
		for i := n - 1; i >= 0; i-- {
			x.set(i, 2)
			if got, k := x.min(); got != i || k != 2 {
				t.Fatalf("n=%d: after keying %d..%d to 2, min is %d (key %g)", n, i, n-1, got, k)
			}
		}
		if n > 1 {
			x.set(0, 3)
			if got, _ := x.min(); got != 1 {
				t.Fatalf("n=%d: with key 0 raised, min is %d, want 1", n, got)
			}
		}
	}
}

// TestIndexAllInfHasNoInstance: an index with every key +Inf, fresh or
// emptied again, yields no instance, and the driver's next returns nil.
func TestIndexAllInfHasNoInstance(t *testing.T) {
	x := newInstIndex(5)
	if _, k := x.min(); !math.IsInf(k, 1) {
		t.Fatalf("fresh index min key %g, want +Inf", k)
	}
	x.set(3, 1)
	x.set(3, inf)
	if _, k := x.min(); !math.IsInf(k, 1) {
		t.Fatalf("emptied index min key %g, want +Inf", k)
	}
	s, err := NewServer(newRoundRobin(5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.idx = x
	if in := s.next(); in != nil {
		t.Fatalf("next on an idle fleet returned instance %d", in.id)
	}
}

// TestIndexSetCurrentValueIsNoop: setting a key to its stored value leaves
// the tree as it was.
func TestIndexSetCurrentValueIsNoop(t *testing.T) {
	x := newInstIndex(6)
	for i, k := range []float64{4, 1, 1, inf, 0.5, 2} {
		x.set(i, k)
	}
	win, key := slices.Clone(x.win), slices.Clone(x.key)
	for i := range 6 {
		x.set(i, x.key[i])
	}
	if !slices.Equal(win, x.win) || !slices.Equal(key, x.key) {
		t.Fatalf("no-op sets changed the tree: win %v -> %v", win, x.win)
	}
	if got, k := x.min(); got != 4 || k != 0.5 {
		t.Fatalf("min %d (key %g), want 4 (0.5)", got, k)
	}
}

// TestIndexLazyMinMatchesScan drives random fleets through the changes the
// driver allows between re-keys: clocks rise, work drains and instances halt
// without a re-key, while work only appears (an enqueue, a thaw) with one,
// for that instance or for all. After every change the index's lazy minimum
// must be the instance a linear scan picks. Clocks are drawn from a few
// values so ties are common.
func TestIndexLazyMinMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	id := 0
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		b := newRoundRobin(n)
		s, err := NewServer(b, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s.idx = newInstIndex(n)
		s.rekeyAll()
		for step := 0; step < 300; step++ {
			in := b.insts[rng.Intn(n)]
			pool := in.sys.Pool()
			switch op := rng.Intn(10); {
			case op < 3: // the clock rises
				in.BumpClock(in.clock + float64(rng.Intn(3)))
			case op < 5: // work drains
				for _, r := range slices.Clone(pool.Waiting()) {
					pool.Remove(r)
				}
			case op < 6: // a crash freezes the instance
				in.SetHalted(true)
			case op < 8: // a dispatch or a thaw, re-keyed
				if rng.Intn(2) == 0 {
					pool.Enqueue(request.New(id, request.Chat, 0.05, in.clock, 16, 4, uint64(id)+1))
					id++
				} else {
					in.SetHalted(false)
				}
				s.idx.set(in.id, in.key())
			case op < 9: // a delivery or a tick: work may appear anywhere
				for _, other := range b.insts {
					if rng.Intn(4) == 0 {
						other.sys.Pool().Enqueue(request.New(id, request.Chat, 0.05, other.clock, 16, 4, uint64(id)+1))
						id++
					}
				}
				s.rekeyAll()
			default: // the chosen instance iterates
				if busy := s.next(); busy != nil {
					busy.BumpClock(busy.clock + float64(rng.Intn(2)))
				}
			}
			if got, want := s.next(), scanNext(b.insts); got != want {
				t.Fatalf("trial %d step %d: index picked %v, scan %v", trial, step, instID(got), instID(want))
			}
		}
	}
}

func instID(in *Instance) int {
	if in == nil {
		return -1
	}
	return in.id
}

// sneaky breaks the Backend contract: after instance 0's first iteration it
// enqueues a request straight onto idle instance 1, outside Dispatch, a
// delivery or a tick.
type sneaky struct {
	*roundRobin
	done bool
}

func (b *sneaky) Dispatch(r *request.Request) (*Instance, error) {
	in := b.insts[0]
	in.BumpClock(r.ArrivalTime)
	in.sys.Pool().Enqueue(r)
	return in, nil
}

func (b *sneaky) AfterIterate(in *Instance, _ *Queue) error {
	if !b.done {
		b.done = true
		b.insts[1].sys.Pool().Enqueue(request.New(99, request.Chat, 0.05, in.clock, 16, 4, 100))
	}
	return nil
}

// TestRunRejectsUntoldWork: work a backend adds outside the contract's
// three points is never picked by the index, so the run fails with a
// one-line error instead of finishing without it.
func TestRunRejectsUntoldWork(t *testing.T) {
	s, err := NewServer(&sneaky{roundRobin: newRoundRobin(2)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewTraceSource([]*request.Request{request.New(0, request.Chat, 0.05, 0, 16, 4, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(src); err == nil || !strings.Contains(err.Error(), "instance 1 (step) holds work added outside Dispatch") {
		t.Fatalf("want the contract error, got %v", err)
	}
}
