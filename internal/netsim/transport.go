package netsim

import (
	"errors"
	"fmt"
)

// ErrBadTransport is the typed error wrapped by ParseTransport for an
// unrecognised transport name. Config surfaces (ClusterSpec, CLI flags)
// match it with errors.Is to map bad input to a clear user-facing error
// instead of silently falling back to the fluid model.
var ErrBadTransport = errors.New("netsim: unknown transport")

// Transport selects the rate model flows transfer under.
type Transport int

const (
	// TransportFluid is the default flow-level model: instantaneous
	// max-min fair sharing (or the configured ablation allocator) with no
	// per-flow window dynamics. It is the fastest model and the one the
	// paper's evaluation uses.
	TransportFluid Transport = iota
	// TransportTCP gives every flow a TCP state machine — slow start,
	// AIMD congestion avoidance, fast retransmit, RTO with exponential
	// backoff — over per-link droptail queues, so fan-in incast and
	// timeout dynamics invisible to the fluid model become observable.
	TransportTCP
)

// String returns the canonical config name of the transport.
func (t Transport) String() string {
	switch t {
	case TransportTCP:
		return "tcp"
	default:
		return "fluid"
	}
}

// ParseTransport maps a config/CLI transport name to its model. The empty
// string and "fluid" select the fluid model; "tcp" selects the TCP state
// machine. Anything else returns an error wrapping ErrBadTransport.
func ParseTransport(name string) (Transport, error) {
	switch name {
	case "", "fluid":
		return TransportFluid, nil
	case "tcp":
		return TransportTCP, nil
	default:
		return TransportFluid, fmt.Errorf("%w %q (valid: fluid, tcp)", ErrBadTransport, name)
	}
}
