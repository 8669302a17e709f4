package dvswitch

// SetDense forces every Step of c through the dense full-fabric scan (true)
// or restores the sparse stepper with its half-occupancy crossover (false).
// The dense scan is the reference the differential tests and
// FuzzSwitchInvariants hold the sparse stepper to.
func SetDense(c *Core, dense bool) {
	c.denseMin = len(c.grid)
	if dense {
		c.denseMin = 0
	}
}
