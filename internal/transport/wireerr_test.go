package transport

import (
	"errors"
	"fmt"
	"testing"
)

func TestWireErrorRoundTrip(t *testing.T) {
	orig := fmt.Errorf("tcp: call dsm.acquire 1 -> 0: %w", ErrPartitioned)

	name := WireErrorName(orig)
	if name != "transport.partitioned" {
		t.Fatalf("WireErrorName = %q, want transport.partitioned", name)
	}

	back := WireError(name, orig.Error())
	if !errors.Is(back, ErrPartitioned) {
		t.Fatalf("reconstructed error does not wrap ErrPartitioned: %v", back)
	}
	if back.Error() != orig.Error() {
		t.Fatalf("reconstructed text %q != original %q", back.Error(), orig.Error())
	}
}

func TestWireErrorBareSentinel(t *testing.T) {
	back := WireError("transport.partitioned", ErrPartitioned.Error())
	if back != ErrPartitioned { //nolint:errorlint // wire decode returns the identical sentinel
		t.Fatalf("bare sentinel did not decode to the sentinel value: %v", back)
	}
}

func TestWireErrorUnknownName(t *testing.T) {
	if name := WireErrorName(errors.New("some app failure")); name != "" {
		t.Fatalf("unregistered error matched %q", name)
	}
	back := WireError("", "some app failure")
	if back == nil || back.Error() != "some app failure" {
		t.Fatalf("plain decode: %v", back)
	}
	if errors.Is(back, ErrPartitioned) {
		t.Fatal("plain decode must not wrap any sentinel")
	}
}

// errTestSentinelA is package-level because the wire-error registry is
// process-global: a fresh value per run would conflict with the one the
// previous run registered (go test -count=2).
var errTestSentinelA = errors.New("sentinel A")

func TestRegisterWireErrorIdempotentAndConflict(t *testing.T) {
	errA := errTestSentinelA
	RegisterWireError("test.sentinelA", errA)
	RegisterWireError("test.sentinelA", errA) // same value: no-op

	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a name with a different value must panic")
		}
	}()
	RegisterWireError("test.sentinelA", errors.New("impostor"))
}
