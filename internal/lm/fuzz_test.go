package lm

import (
	"testing"

	"adaserve/internal/mathutil"
)

// FuzzDistSample fuzzes Dist.Sample and the tail-sampling path, seeded from
// the PR 2 tail-fallback bug: the old fallback mapped tail draws onto
// candidate tokens, double-counting their mass on top of their explicit
// entries. The invariants: every sampled token is in-vocabulary, a draw that
// lands in the tail never returns a candidate token (when non-candidate
// tokens exist), and total probability mass over the vocabulary is
// conserved.
func FuzzDistSample(f *testing.F) {
	// The bug's shape: a candidate set covering most of the vocabulary, so
	// the rank-remap in sampleTail has few free tokens to land on.
	f.Add(uint64(1), uint16(8), uint16(7), uint16(320), uint16(2), uint8(64))
	// Degenerate: candidates cover the whole vocabulary — no tail tokens
	// exist and the fallback branch must engage.
	f.Add(uint64(7), uint16(4), uint16(4), uint16(160), uint16(0), uint8(64))
	// Heavy tail: most draws land outside the candidate set.
	f.Add(uint64(3), uint16(64), uint16(2), uint16(100), uint16(90), uint8(64))
	// Minimal vocabulary.
	f.Add(uint64(9), uint16(2), uint16(1), uint16(50), uint16(10), uint8(8))

	f.Fuzz(func(t *testing.T, seed uint64, vocabRaw, branchRaw, sharpRaw, tailRaw uint16, draws uint8) {
		vocab := 2 + int(vocabRaw%127)     // [2, 128]
		branch := 1 + int(branchRaw)%vocab // [1, vocab]
		sharpness := 0.5 + float64(sharpRaw%400)/100.0
		tail := float64(tailRaw%100) / 100.0 // [0, 0.99]
		m, err := newSyntheticLM(seed, vocab, branch, sharpness, tail)
		if err != nil {
			t.Fatalf("construction rejected in-range parameters: %v", err)
		}
		ctx := ctxOf(seed^0xabcd, []Token{Token(seed % uint64(vocab))})
		d := m.Dist(ctx)
		if err := validate(d, tail); err != nil {
			t.Fatal(err)
		}
		inCandidates := func(tok Token) bool {
			for _, e := range entries(d) {
				if e.Token == tok {
					return true
				}
			}
			return false
		}

		// Mass conservation over the whole vocabulary: candidate mass plus
		// per-token tail shares must sum to 1. A double-counted candidate
		// would push this above 1.
		var mass float64
		for tok := 0; tok < vocab; tok++ {
			mass += prob(d, tail, Token(tok))
		}
		if vocab == d.Len() {
			// No tail tokens exist: the tail mass is unreachable by prob.
			mass += tail
		}
		if mass < 0.999 || mass > 1.001 {
			t.Fatalf("probability mass over vocab sums to %g", mass)
		}

		rng := mathutil.NewRNG(mathutil.Hash2(seed, uint64(draws)+1))
		free := vocab - d.Len()
		for i := 0; i < int(draws)+1; i++ {
			tok := d.Sample(rng)
			if tok < 0 || int(tok) >= vocab {
				t.Fatalf("sampled out-of-vocabulary token %d (vocab %d)", tok, vocab)
			}
			// Exercise the tail path directly: a tail draw must never land
			// on a candidate (that would double-count its mass), except in
			// the degenerate no-free-token fallback.
			tt := d.sampleTail(rng)
			if int(tt) >= vocab || tt < 0 {
				t.Fatalf("tail-sampled out-of-vocabulary token %d (vocab %d)", tt, vocab)
			}
			if free > 0 && inCandidates(tt) {
				t.Fatalf("tail draw returned candidate token %d: candidate mass double-counted", tt)
			}
			if free == 0 && !inCandidates(tt) {
				t.Fatalf("degenerate fallback returned unknown token %d", tt)
			}
		}
	})
}
