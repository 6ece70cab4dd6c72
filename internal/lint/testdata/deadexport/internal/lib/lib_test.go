package lib

import "testing"

func TestOnlyConst(t *testing.T) {
	if TestOnly != 1 {
		t.Fatal("TestOnly")
	}
}
