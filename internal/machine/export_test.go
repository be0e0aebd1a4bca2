package machine

// Fresh builds a machine from cfg without looking in the pool.
func Fresh(cfg Config) *Machine {
	m := build(cfg)
	m.configure(cfg)
	return m
}

// Drain empties the pool of cfg's shape.
func Drain(cfg Config) {
	for p := poolOf(shapeOf(cfg)); p.Get() != nil; {
	}
}

// RaceEnabled reports whether the tests run under the race detector.
func RaceEnabled() bool { return raceEnabled }
