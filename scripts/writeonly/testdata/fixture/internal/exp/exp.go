// Package exp is the package-local export checker's fixture: exported names
// another package uses, names only this package uses, and methods that stay
// exported because they satisfy an interface.
package exp

import "sort"

// Limit is only used in this package: flagged.
const Limit = 3

// Local is only called in this package and by an external test: flagged.
func Local() int { return Limit }

// Config is built by cmd/app.
type Config struct {
	Used int // set by cmd/app: kept
	Knob int // only set in this package: flagged
}

// Result is returned by Build, which cmd/app calls: kept although cmd/app
// never names it.
type Result struct{ N int }

// Build is called by cmd/app.
func Build(c Config) Result {
	c.Knob = Local()
	return Result{N: c.Used + c.Knob + len(label("x").String())}
}

// label's String satisfies fmt.Stringer: kept.
type label string

func (l label) String() string { return string(l) }

// byLen's Len, Less and Swap satisfy sort.Interface: kept.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func sortByLen(s []string) { sort.Sort(byLen(s)) }

// runner is a same-package interface; job's Run satisfies it: kept.
type runner interface{ Run() int }

type job struct{}

func (job) Run() int { return 1 }

// describer is satisfied only by wrapped, through the Describe it promotes
// from base: base's Describe is kept.
type describer interface {
	Describe() string
	Tag() string
}

type base struct{}

func (base) Describe() string { return "base" }

type wrapped struct{ base }

func (wrapped) tag() string { return "w" }

func (w wrapped) Tag() string { return w.tag() }

func use() {
	sortByLen(nil)
	var r runner = job{}
	var d describer = wrapped{}
	_, _ = r, d
}
