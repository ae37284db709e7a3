package core

import (
	"testing"
	"testing/quick"
)

func TestDefaultControllerValid(t *testing.T) {
	c := DefaultController(200)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestControllerValidateRejects(t *testing.T) {
	bad := []Controller{
		{DMin: -1, DMax: 4, WMax: 2, b1: 10, b2: 10},
		{DMin: 5, DMax: 4, WMax: 2, b1: 10, b2: 10},
		{DMin: 1, DMax: 4, WMax: 0, b1: 10, b2: 10},
		{DMin: 1, DMax: 4, WMax: 2, b1: 0, b2: 10},
		{DMin: 1, DMax: 4, WMax: 2, b1: 10, b2: 0},
		{DMin: 1, DMax: 4, WMax: 2, b1: 10, b2: 10, c1: -1},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d should not validate", i)
		}
	}
}

func TestParamsEquation(t *testing.T) {
	// Eq. 8-9 with b1=120, b2=60, c1=2, c2=0:
	// n=10: d = clip(120/12 - 1) = 9 -> DMax; w = clip(60/10) = 6 -> WMax.
	c := Controller{DMin: 1, DMax: 8, WMax: 4, b1: 120, b2: 60, c1: 2, c2: 0}
	d, w := c.Params(10)
	if d != 8 || w != 4 {
		t.Fatalf("n=10: (d,w) = (%d,%d), want (8,4)", d, w)
	}
	// n=58: d = clip(120/60 - 1) = 1; w = clip(60/58) = 1.
	d, w = c.Params(58)
	if d != 1 || w != 1 {
		t.Fatalf("n=58: (d,w) = (%d,%d), want (1,1)", d, w)
	}
	// n=28: d = clip(120/30-1) = 3; w = clip(60/28)=2.
	d, w = c.Params(28)
	if d != 3 || w != 2 {
		t.Fatalf("n=28: (d,w) = (%d,%d), want (3,2)", d, w)
	}
}

func TestParamsMonotoneDecreasing(t *testing.T) {
	c := DefaultController(160)
	prevD, prevW := 1<<30, 1<<30
	for n := 1; n <= 200; n++ {
		d, w := c.Params(n)
		if d > prevD || w > prevW {
			t.Fatalf("params increased with load at n=%d", n)
		}
		prevD, prevW = d, w
	}
}

func TestParamsBoundsProperty(t *testing.T) {
	c := DefaultController(200)
	err := quick.Check(func(nRaw uint16, b1Raw, b2Raw uint16) bool {
		n := int(nRaw%500) + 1
		b1 := int(b1Raw%1000) + 1
		b2 := int(b2Raw%1000) + 1
		d, w := c.ParamsWithBudget(n, b1, b2)
		return d >= c.DMin && d <= c.DMax && w >= 1 && w <= c.WMax
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParamsZeroRequests(t *testing.T) {
	c := DefaultController(160)
	d0, w0 := c.Params(0)
	d1, w1 := c.Params(1)
	if d0 != d1 || w0 != w1 {
		t.Fatal("n=0 should behave like n=1")
	}
}

func TestStaticController(t *testing.T) {
	c := StaticController(5, 3)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 5, 50, 500} {
		d, w := c.Params(n)
		if d != 5 || w != 3 {
			t.Fatalf("static controller returned (%d,%d) at n=%d", d, w, n)
		}
	}
}
