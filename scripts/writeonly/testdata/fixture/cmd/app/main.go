package main

import (
	"fmt"

	"fixture/internal/fix"
)

func main() {
	c := fix.New()
	b := fix.NewBox[int](7)
	fmt.Println(c.Read, c.Nested.Inner, b.Val)
}
