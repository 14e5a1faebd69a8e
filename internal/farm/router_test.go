package farm

import (
	"sort"
	"testing"
)

// TestRouterImbalanceBound routes 1e5 synthetic keys over seven shards
// and checks the max/mean shard load. Rendezvous hashing over k keys and
// n shards gives each shard a Binomial(k, 1/n) load; at k=1e5, n=7 the
// standard deviation is ~110 on a mean of ~14286, so max/mean beyond
// 1.05 would be a >6-sigma event and indicates a broken mixer.
func TestRouterImbalanceBound(t *testing.T) {
	const keys, shards = 100_000, 7
	r, err := NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	var load [shards]int
	for k := uint64(0); k < keys; k++ {
		load[r.Owner(k)]++
	}
	max, total := 0, 0
	for s, n := range load {
		if n == 0 {
			t.Fatalf("shard %d received no keys", s)
		}
		total += n
		if n > max {
			max = n
		}
	}
	mean := float64(total) / shards
	if ratio := float64(max) / mean; ratio > 1.05 {
		t.Errorf("max/mean shard load = %.4f, want <= 1.05 (loads %v)", ratio, load)
	}
}

// TestRouterDeterministic checks that routing is a pure function: two
// routers over the same shard count agree on every key, and Prefer
// always leads with Owner.
func TestRouterDeterministic(t *testing.T) {
	a, _ := NewRouter(5)
	b, _ := NewRouter(5)
	var buf []int
	for k := uint64(0); k < 10_000; k++ {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %d: owners disagree (%d vs %d)", k, a.Owner(k), b.Owner(k))
		}
		buf = a.Prefer(k, 3, buf)
		if len(buf) != 3 {
			t.Fatalf("key %d: Prefer returned %d shards, want 3", k, len(buf))
		}
		if buf[0] != a.Owner(k) {
			t.Fatalf("key %d: Prefer[0]=%d != Owner=%d", k, buf[0], a.Owner(k))
		}
		seen := map[int]bool{}
		for _, s := range buf {
			if s < 0 || s >= 5 || seen[s] {
				t.Fatalf("key %d: bad preference list %v", k, buf)
			}
			seen[s] = true
		}
	}
}

// TestPreferMatchesSortedScores checks Prefer against the definition of
// the preference order: shards by descending score, ties to the lower
// index, cut at k. Shard counts run from 1 to 130, k runs past the shard
// count, and one router serves every key, so a pick left marked by the
// previous call would show.
func TestPreferMatchesSortedScores(t *testing.T) {
	var buf []int
	for n := 1; n <= 130; n++ {
		r, err := NewRouter(n)
		if err != nil {
			t.Fatal(err)
		}
		order := make([]int, n)
		for key := uint64(0); key < 100; key++ {
			for s := range order {
				order[s] = s
			}
			sort.SliceStable(order, func(i, j int) bool { return score(key, order[i]) > score(key, order[j]) })
			for k := 1; k <= 5; k++ {
				buf = r.Prefer(key, k, buf)
				want := order[:min(k, n)]
				if len(buf) != len(want) {
					t.Fatalf("n=%d key=%d k=%d: Prefer = %v, want %v", n, key, k, buf, want)
				}
				for i := range want {
					if buf[i] != want[i] {
						t.Fatalf("n=%d key=%d k=%d: Prefer = %v, want %v", n, key, k, buf, want)
					}
				}
			}
		}
	}
}

// TestRouterRemapFraction grows the farm from 6 to 7 shards and measures
// how many keys move. Rendezvous hashing is consistent-hash-grade: a key
// moves only if the *new* shard's score beats its old owner's, so every
// moved key lands on shard 6 and the expected moved fraction is exactly
// 1/7 (each of the 7 shards is equally likely to hold a key's top score).
// A modulo router would remap ~6/7 of keys; we assert we are nowhere
// near that and that no key moved between two pre-existing shards.
func TestRouterRemapFraction(t *testing.T) {
	const keys = 100_000
	old, _ := NewRouter(6)
	grown, _ := NewRouter(7)
	moved := 0
	for k := uint64(0); k < keys; k++ {
		before, after := old.Owner(k), grown.Owner(k)
		if before == after {
			continue
		}
		if after != 6 {
			t.Fatalf("key %d moved between pre-existing shards %d -> %d", k, before, after)
		}
		moved++
	}
	frac := float64(moved) / keys
	// Binomial(1e5, 1/7): mean 1/7 ~ 0.1429, sigma ~ 0.0011.
	if frac < 0.135 || frac > 0.151 {
		t.Errorf("remap fraction = %.4f, want ~1/7 = %.4f", frac, 1.0/7)
	}
}

// TestRotateRange checks Rotate stays in range and actually varies with
// the sequence number (it drives per-request copy rotation).
func TestRotateRange(t *testing.T) {
	seenAll := map[int]bool{}
	for seq := int64(0); seq < 100; seq++ {
		i := Rotate(0xdeadbeef, seq, 3)
		if i < 0 || i >= 3 {
			t.Fatalf("Rotate out of range: %d", i)
		}
		seenAll[i] = true
	}
	if len(seenAll) != 3 {
		t.Errorf("Rotate over 100 seqs hit only %d of 3 slots", len(seenAll))
	}
	if Rotate(1, 2, 1) != 0 || Rotate(1, 2, 0) != 0 {
		t.Error("Rotate with n<=1 must return 0")
	}
}
