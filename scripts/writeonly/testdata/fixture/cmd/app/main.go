package main

import (
	"fmt"

	"fixture/internal/exp"
	"fixture/internal/fix"
)

func main() {
	c := fix.New()
	b := fix.NewBox[int](7)
	e := fix.NewElems()
	r := exp.Build(exp.Config{Used: 1})
	fmt.Println(c.Read, c.Nested.Inner, b.Val, e != nil, r.N)
}
