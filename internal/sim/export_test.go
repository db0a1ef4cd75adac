package sim

// DisableRunAhead makes m schedule strictly in min-clock order, the
// reference the run-ahead exactness tests compare against. Call before Run.
func DisableRunAhead(m *Machine) { m.noRunAhead = true }

// Settles reports how often a settle found instructions still ahead: abort
// rewinds and shootdown charges.
func Settles(m *Machine) (aborts, charges uint64) { return m.settles[0], m.settles[1] }

// Acting reports the (clock, context id) scheduling key of the instruction
// executing now, or last executed.
func Acting(m *Machine) (clock int64, id int) { return m.actClock, m.actID }
