package farm

import "fmt"

// Router shards request keys across the farm's libraries with rendezvous
// (highest-random-weight) hashing: every (key, shard) pair gets a pseudo-
// random score from a stateless mixer and the key is owned by the shard
// with the highest score. Compared with the balance-id buckets used by
// replication batchers, rendezvous hashing needs no table: it is fully
// determined by the shard count, and growing the farm from N to N+1
// shards moves exactly the keys whose new top score lands on the added
// shard — an expected 1/(N+1) of them, and only ever onto the new shard.
// That is consistent-hash-grade remapping without a ring.
//
// Beyond single ownership, the router exposes the full preference order
// (shards sorted by descending score), which placement policies use to
// pick where NR cross-library copies land and the front end uses to fail
// over when a copy's tape has died.
type Router struct {
	shards int
	scores []uint64 // Prefer scratch; makes the router single-goroutine
	taken  []bool   // Prefer scratch: shards already picked, cleared on return
}

// NewRouter returns a router over n shards. The router keeps internal
// scratch, so a single Router must not be shared across goroutines; the
// split pre-pass that uses it is sequential by design.
func NewRouter(n int) (*Router, error) {
	if n < 1 {
		return nil, fmt.Errorf("farm: router needs at least one shard, got %d", n)
	}
	return &Router{shards: n, scores: make([]uint64, n), taken: make([]bool, n)}, nil
}

// mix64 is the splitmix64 finalizer: a cheap invertible mixer whose output
// bits are well distributed even for sequential inputs. All routing,
// placement, and load-rotation decisions funnel through it so the farm is
// a pure function of (key, shard count, sequence number).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// score is the rendezvous weight of shard s for key k. The shard index is
// pre-mixed so that adjacent shards produce unrelated score streams.
func score(key uint64, shard int) uint64 {
	return mix64(key ^ mix64(uint64(shard)+0x9e3779b97f4a7c15))
}

// Owner returns the shard that owns key: the argmax of score over all
// shards, ties broken toward the lower index (ties are a 2^-64 event but
// the break keeps Owner a total deterministic function).
func (r *Router) Owner(key uint64) int {
	best, bestScore := 0, score(key, 0)
	for s := 1; s < r.shards; s++ {
		if sc := score(key, s); sc > bestScore {
			best, bestScore = s, sc
		}
	}
	return best
}

// Prefer appends the top-k shards for key in descending score order to
// buf (which may be nil) and returns the result. k is clamped to the
// shard count. The first element always equals Owner(key). Selection is
// O(k·N), fine for the small k (NR+1 copies) and modest N used here.
func (r *Router) Prefer(key uint64, k int, buf []int) []int {
	if k > r.shards {
		k = r.shards
	}
	buf = buf[:0]
	scores := r.scores
	for s := range scores {
		scores[s] = score(key, s)
	}
	taken := r.taken
	for len(buf) < k {
		best, bestScore, found := 0, uint64(0), false
		for s := range scores {
			if !taken[s] && (!found || scores[s] > bestScore) {
				best, bestScore, found = s, scores[s], true
			}
		}
		taken[best] = true
		buf = append(buf, best)
	}
	for _, s := range buf {
		taken[s] = false
	}
	return buf
}

// Rotate picks a deterministic pseudo-random index in [0, n) from a key
// and a per-request sequence number. The front end uses it to rotate
// each hot block's requests over the libraries holding a copy, so
// multi-copy placements spread a block's load instead of always hitting
// the top-scored holder.
func Rotate(key uint64, seq int64, n int) int {
	if n <= 1 {
		return 0
	}
	return int(mix64(key^mix64(uint64(seq)+0x632be59bd9b4e019)) % uint64(n))
}
