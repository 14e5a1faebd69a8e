// Package reachfix is the public package of a small module with planted
// dead code, the fixture of the root package's TestReachFixture.
package reachfix

import "reachfix/internal/calc"

// Shape is the interface through which Run reaches calc.Circle.Area.
type Shape interface{ Area() float64 }

// Run is the public API.
func Run() float64 {
	var s Shape = calc.Circle{R: 1}
	return s.Area() + calc.Double(2)
}
