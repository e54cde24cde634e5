package netsim

// Test-only accessors that reach into the flow core, so the
// invariant-corruption tests can perturb the first active flow.

// testSetRemaining corrupts the first active flow's byte residue.
func testSetRemaining(n *Network, v float64) { n.remaining[n.active[0]] = v }

// testMarkDone marks the first active flow finished without removing it
// from the active set — the inconsistency VerifyState must flag.
func testMarkDone(n *Network) { n.state[n.active[0]] = slotFree }

// testScaleRate perturbs the first active flow's installed rate.
func testScaleRate(n *Network, factor float64) { n.rate[n.active[0]] *= factor }

// testFirstLink returns the first link of the first active flow's path.
func testFirstLink(n *Network) LinkID { return n.path(n.active[0])[0] }
