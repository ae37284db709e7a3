package fix

import "testing"

func TestTestOnly(t *testing.T) {
	if New().TestOnly != 2 {
		t.Fatal("TestOnly")
	}
}
