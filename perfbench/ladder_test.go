package main

import "testing"

// Every ladder rung runs at a tiny size, does all the ops it was asked
// for, and reports a positive time per op over them.
func TestLadderRungsAtTinySize(t *testing.T) {
	const n = 8
	for _, r := range ladder {
		t.Run(r.name, func(t *testing.T) {
			res := timeRung(r, n)
			if res.ops < n {
				t.Fatalf("%s: did %d of %d ops", r.name, res.ops, n)
			}
			if res.nsPerOp <= 0 {
				t.Fatalf("%s: %v ns/op", r.name, res.nsPerOp)
			}
		})
	}
}
