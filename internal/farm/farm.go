// Package farm implements the cost-performance analysis of Section 4.8: a
// farm of identical tape jukeboxes whose aggregate cost is proportional to
// the jukebox count. Replication expands storage by E = 1 + NR*PH/100, so a
// replicated farm needs E times the jukeboxes of a non-replicated farm to
// hold the same data, and each of its jukeboxes sees only 1/E of the
// request load. The cost-performance ratio of scheme a versus scheme b
// reduces to the ratio of their per-jukebox throughputs.
package farm

import (
	"errors"
	"fmt"
	"math"
)

// ExpansionFactor returns E = 1 + NR*PH/100 (Figure 10a): the storage
// growth from keeping NR replicas of PH percent hot data.
func ExpansionFactor(replicas int, hotPercent float64) float64 {
	return 1 + float64(replicas)*hotPercent/100
}

// ScaledQueueLength returns the per-jukebox closed-queue length when a
// workload sized for a non-replicated farm (queue length base per jukebox)
// is spread over the E-times-larger replicated farm. The paper uses
// base/E, rounded to the nearest whole process, never below one.
func ScaledQueueLength(base int, e float64) (int, error) {
	if base < 1 {
		return 0, errors.New("farm: base queue length must be positive")
	}
	if e < 1 {
		return 0, fmt.Errorf("farm: expansion factor %v below 1", e)
	}
	q := int(math.Round(float64(base) / e))
	if q < 1 {
		q = 1
	}
	return q, nil
}

// CostPerformanceRatio compares replication scheme a against baseline b:
// the ratio of per-jukebox throughput (any consistent unit). A value above
// 1 means the replication scheme's extra performance pays for its extra
// storage.
func CostPerformanceRatio(throughputA, throughputB float64) (float64, error) {
	if throughputB <= 0 {
		return 0, errors.New("farm: baseline throughput must be positive")
	}
	if throughputA < 0 {
		return 0, errors.New("farm: negative throughput")
	}
	return throughputA / throughputB, nil
}
