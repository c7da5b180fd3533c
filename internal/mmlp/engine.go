package mmlp

import "fmt"

// Engine is the typed form of a wire engine name. Its numeric values are
// stable — they are what the canon key encoder hashes — so they must never
// be reordered.
type Engine int

// Typed engines, in wire-name order (see ParseEngine).
const (
	// EngineCentral is the fast centralised engine ("local", the default).
	EngineCentral Engine = iota
	// EngineDistributed is the synchronous message-passing protocol with
	// anonymous view gathering ("dist").
	EngineDistributed
	// EngineDistributedCompact is the identifier-based record-gossip
	// protocol ("dist-compact").
	EngineDistributedCompact
)

// ErrUnknownEngine reports an engine name outside the wire vocabulary. It
// wraps ErrInvalid so the serving layers map it to a 400 like every other
// request-shape error.
var ErrUnknownEngine = fmt.Errorf("%w: unknown engine", ErrInvalid)

// ParseEngine maps a wire engine name to its typed form. The empty string
// selects EngineCentral, matching the request default. Unknown names
// return an error wrapping ErrUnknownEngine (and hence ErrInvalid) that
// spells out the accepted vocabulary.
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "", EngineLocal:
		return EngineCentral, nil
	case EngineDist:
		return EngineDistributed, nil
	case EngineDistCompact:
		return EngineDistributedCompact, nil
	}
	return 0, fmt.Errorf("%w %q (want %q, %q or %q)",
		ErrUnknownEngine, name, EngineLocal, EngineDist, EngineDistCompact)
}

// String returns the wire name of the engine.
func (e Engine) String() string {
	switch e {
	case EngineCentral:
		return EngineLocal
	case EngineDistributed:
		return EngineDist
	case EngineDistributedCompact:
		return EngineDistCompact
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// EngineNames lists the accepted wire engine names, in parse order.
func EngineNames() []string {
	return []string{EngineLocal, EngineDist, EngineDistCompact}
}
