package program

// UseLockstep makes every program run in lockstep with its core (see
// lockstep) until restore is called.
func UseLockstep() (restore func()) {
	lockstep = true
	return func() { lockstep = false }
}
