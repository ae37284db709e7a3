package exp_test

import (
	"testing"

	"fixture/internal/exp"
)

// An external test's use does not keep Local exported.
func TestLocal(t *testing.T) {
	if exp.Local() != exp.Limit {
		t.Fatal("Local")
	}
}
