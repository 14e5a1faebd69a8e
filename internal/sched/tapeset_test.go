package sched

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// Property: a TapeSet reused across tape counts that shrink and grow holds
// exactly the tapes added since its last Reset in as many words as the
// count needs, the word walk finds them in ascending order, and the
// jukebox-order walk from any tape visits them upward from it and then,
// wrapping, from tape 0, across word boundaries.
func TestTapeSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s TapeSet
	for trial := 0; trial < 400; trial++ {
		n := []int{1, 2, 10, 63, 64, 65, 127, 128, 130, 200}[rng.Intn(10)]
		s.Reset(n)
		in := make([]bool, n)
		for k := rng.Intn(n + 1); k > 0; k-- {
			tp := rng.Intn(n)
			s.Add(tp)
			in[tp] = true
		}
		var want []int
		for tp, ok := range in {
			if ok {
				want = append(want, tp)
			}
		}
		var got []int
		for i, w := range s.Words() {
			for ; w != 0; w &= w - 1 {
				got = append(got, i<<6|bits.TrailingZeros64(w))
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d tapes): ascending walk %v, want %v", trial, n, got, want)
		}
		if words := len(s.Words()); words != (n+63)/64 {
			t.Fatalf("trial %d: %d words for %d tapes", trial, words, n)
		}
		first := rng.Intn(n + 1)
		var wrapped []int
		for i := 0; i < n; i++ {
			if tp := (first + i) % n; in[tp] {
				wrapped = append(wrapped, tp)
			}
		}
		if got := jukeboxWalk(&s, first, 0); !slices.Equal(got, wrapped) {
			t.Fatalf("trial %d (%d tapes): jukebox walk from %d = %v, want %v", trial, n, first, got, wrapped)
		}
	}
}
