package simclock

import "errors"

// ErrDeadline is the sentinel a virtual-time deadline expiry matches: an
// admission queue-deadline shed satisfies errors.Is(err, simclock.ErrDeadline),
// so callers can classify "ran out of virtual time" without string matching
// or knowing which layer imposed the deadline.
var ErrDeadline = errors.New("simclock: virtual deadline exceeded")
