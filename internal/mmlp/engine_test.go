package mmlp

import (
	"errors"
	"testing"
)

func TestParseEngine(t *testing.T) {
	cases := map[string]Engine{
		"":                EngineCentral,
		EngineLocal:       EngineCentral,
		EngineDist:        EngineDistributed,
		EngineDistCompact: EngineDistributedCompact,
	}
	for name, want := range cases {
		got, err := ParseEngine(name)
		if err != nil {
			t.Fatalf("ParseEngine(%q): %v", name, err)
		}
		if got != want {
			t.Fatalf("ParseEngine(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestParseEngineUnknown(t *testing.T) {
	for _, name := range []string{"LOCAL", "central", "dist-compact ", "simplex"} {
		_, err := ParseEngine(name)
		if !errors.Is(err, ErrUnknownEngine) {
			t.Fatalf("ParseEngine(%q): err = %v, want ErrUnknownEngine", name, err)
		}
		if !errors.Is(err, ErrInvalid) {
			t.Fatalf("ParseEngine(%q): error does not wrap ErrInvalid", name)
		}
	}
}

// TestEngineRoundTrip: String inverts ParseEngine over the whole wire
// vocabulary, and EngineNames lists exactly that vocabulary.
func TestEngineRoundTrip(t *testing.T) {
	names := EngineNames()
	if len(names) != 3 {
		t.Fatalf("EngineNames() = %v, want 3 names", names)
	}
	for _, name := range names {
		e, err := ParseEngine(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.String() != name {
			t.Fatalf("ParseEngine(%q).String() = %q", name, e.String())
		}
	}
	if s := Engine(99).String(); s != "Engine(99)" {
		t.Fatalf("out-of-range String() = %q", s)
	}
}

// TestEngineValuesStable pins the numeric values: they are hashed into
// canon keys, so reordering them would silently invalidate every cache
// and re-route every key in a fleet.
func TestEngineValuesStable(t *testing.T) {
	if EngineCentral != 0 || EngineDistributed != 1 || EngineDistributedCompact != 2 {
		t.Fatalf("engine values moved: %d %d %d", EngineCentral, EngineDistributed, EngineDistributedCompact)
	}
}
