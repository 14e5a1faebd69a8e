package calc

var scale float64

func init() { setup() }

// setup is reached only from init.
func setup() { scale = 1 }

// Double is reached from the public API.
func Double(x float64) float64 { return 2 * x * scale }

// Triple is planted dead: nothing calls it.
func Triple(x float64) float64 { return helper(x) }

// helper is called only by the dead Triple.
func helper(x float64) float64 { return 3 * x }

// Circle is reached from the public API.
type Circle struct{ R float64 }

// Area is reached only through the interface call in reachfix.Run.
func (c Circle) Area() float64 { return 3 * c.R * c.R }

// color, its constants and its String method are used by nothing.
type color int

const (
	red color = iota
	green
)

func (c color) String() string {
	if c == red {
		return "red"
	}
	return "green"
}
