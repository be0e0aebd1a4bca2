// Package apps ports the paper's 13 dynamic task-parallel application
// kernels (Table III) to the work-stealing runtime: five Cilk-5 kernels
// using recursive spawn-and-sync and eight Ligra kernels using
// loop-level parallelism with fine-grained synchronization
// (compare-and-swap), exactly the split the paper studies.
//
// Every kernel provides a parallel program, a serial program (for the
// Serial-IO baseline), and a verifier that checks the simulated output
// against a native Go reference.
package apps

import (
	"fmt"
	"sort"

	"bigtiny/internal/mem"
	"bigtiny/internal/wsrt"
)

// Size selects an input scale.
type Size int

// Input scales: Test for unit tests, Ref for the 64-core evaluation
// (Table III/Figures 5-8, scaled to simulator speed), Big for the
// 256-core weak-scaling study (Table V). Empty and Unit are degenerate
// inputs (zero-size arrays / edgeless graphs, and the smallest
// nontrivial input) used by robustness tests only.
const (
	Test Size = iota
	Ref
	Big
	Empty
	Unit
)

// ParseSize is String's inverse: it resolves a size name from a CLI
// flag or an API request, so every entry point validates against the
// same list.
func ParseSize(name string) (Size, error) {
	for _, s := range []Size{Test, Ref, Big, Empty, Unit} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("apps: unknown size %q (have test, ref, big, empty, unit)", name)
}

// String names the size.
func (s Size) String() string {
	switch s {
	case Test:
		return "test"
	case Ref:
		return "ref"
	case Big:
		return "big"
	case Empty:
		return "empty"
	case Unit:
		return "unit"
	}
	return fmt.Sprintf("Size(%d)", int(s))
}

// Instance is a configured program ready to run on one machine.
type Instance struct {
	// Root is the parallel program (uses Fork/ParallelFor).
	Root wsrt.Body
	// SerialRoot is the serial program for the Serial-IO baseline.
	SerialRoot wsrt.Body
	// Verify checks outputs; read returns the freshest simulated value.
	Verify func(read func(mem.Addr) uint64) error
	// InputDesc describes the input (for reports).
	InputDesc string
}

// App is one of the paper's 13 kernels.
type App struct {
	// Name matches the paper (e.g. "cilk5-cs", "ligra-bfs").
	Name string
	// Method is the parallelization method: "ss" (recursive
	// spawn-and-sync) or "pf" (parallel_for), per Table III.
	Method string
	// DefaultGrain is the task granularity used in the evaluation
	// (chosen per §V-D to make the bT/MESI baseline perform well).
	DefaultGrain int
	// Setup allocates inputs in the runtime's machine memory and
	// returns the program instance. grain <= 0 uses DefaultGrain.
	Setup func(rt *wsrt.RT, size Size, grain int) *Instance
}

var registry []*App

func register(a *App) *App {
	registry = append(registry, a)
	return a
}

// All returns the 13 applications in the paper's Table III order.
func All() []*App {
	out := make([]*App, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return tableOrder(out[i].Name) < tableOrder(out[j].Name) })
	return out
}

// ByName returns the named app or an error.
func ByName(name string) (*App, error) {
	for _, a := range registry {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("apps: unknown app %q", name)
}

// CheckGrain validates a task-granularity override from a CLI flag or
// an API request: 0 means each app's DefaultGrain, and a negative
// grain is an error rather than a silent default.
func CheckGrain(grain int) error {
	if grain < 0 {
		return fmt.Errorf("apps: negative grain %d", grain)
	}
	return nil
}

// tableOrder gives the paper's Table III row order.
func tableOrder(name string) int {
	order := []string{
		"cilk5-cs", "cilk5-lu", "cilk5-mm", "cilk5-mt", "cilk5-nq",
		"ligra-bc", "ligra-bf", "ligra-bfs", "ligra-bfsbv", "ligra-cc",
		"ligra-mis", "ligra-radii", "ligra-tc",
	}
	for i, n := range order {
		if n == name {
			return i
		}
	}
	return len(order)
}

// grainOr returns g if positive, else the app default.
func grainOr(g, def int) int {
	if g > 0 {
		return g
	}
	return def
}

// word returns the address of the i-th word of a simulated array.
func word(base mem.Addr, i int) mem.Addr { return base + mem.Addr(i)*8 }
