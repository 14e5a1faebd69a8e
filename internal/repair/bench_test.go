package repair

import (
	"math/rand"
	"testing"

	"tapejuke/internal/layout"
)

// BenchmarkRankNext measures one idle visit's ranking over a 700-job table
// in which half the jobs' blocks carry heat and half were never touched.
// "first" ranks and pops one job, the shape of a visit that issues the
// hottest job's step; "all" pops every job, the shape of a visit whose
// write steps cannot be placed anywhere.
func BenchmarkRankNext(b *testing.B) {
	for _, bc := range []struct {
		name string
		all  bool
	}{{"first", false}, {"all", true}} {
		b.Run(bc.name, func(b *testing.B) {
			jk := newTestJuke(b, 8, 256, 1, 1024)
			heat := NewHeat(jk.lay.NumBlocks(), 100_000)
			pl := jk.planner(Config{}, heat)
			rng := rand.New(rand.NewSource(1))
			for blk := 0; len(pl.jobs) < 700; blk++ {
				if blk%2 == 0 {
					for k := rng.Intn(5); k >= 0; k-- {
						heat.Touch(blk, float64(rng.Intn(1000)))
					}
				}
				pl.enqueue(layout.BlockID(blk), 1000, pl.Base(layout.BlockID(blk))+1)
			}
			now := 1000.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				pl.Rank(now)
				j := pl.Next()
				for bc.all && j != nil {
					j = pl.Next()
				}
			}
		})
	}
}
