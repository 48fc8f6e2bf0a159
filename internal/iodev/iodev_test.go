package iodev

import (
	"testing"
	"testing/quick"
)

func TestStandardModelsValid(t *testing.T) {
	for name, m := range Catalog() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if m.Name != name {
			t.Errorf("catalog key %q ≠ model name %q", name, m.Name)
		}
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	bad := []Model{
		{Name: "", BitsPerSec: 1},
		{Name: "x", BitsPerSec: 0},
		{Name: "x", BitsPerSec: 1, OverheadBits: -1},
		{Name: "x", BitsPerSec: 1, SetupSlots: -1},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Errorf("case %d accepted: %+v", i, m)
		}
	}
}

func TestServiceSlotsEthernet(t *testing.T) {
	// 1500 B at 1 Gbps = 12 µs payload + framing; slots are 1 µs.
	s := Ethernet.ServiceSlots(1500)
	if s < 12 || s > 16 {
		t.Errorf("Ethernet 1500B service = %d slots, want ≈12-16", s)
	}
}

func TestServiceSlotsUARTSlow(t *testing.T) {
	// UART is slow: 100 bytes at 115200 bps ≈ 7 ms ≈ 7000 slots.
	s := UART.ServiceSlots(100)
	if s < 6000 || s > 8000 {
		t.Errorf("UART 100B service = %d slots, want ≈7000", s)
	}
}

func TestServiceSlotsMinimumOne(t *testing.T) {
	m := Model{Name: "fast", BitsPerSec: 1e12}
	if got := m.ServiceSlots(0); got != 1 {
		t.Errorf("zero-byte op = %d slots, want 1", got)
	}
	if got := m.ServiceSlots(-5); got != 1 {
		t.Errorf("negative bytes treated as 0: got %d", got)
	}
}

func TestServiceSlotsMonotonic(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return FlexRay.ServiceSlots(x) <= FlexRay.ServiceSlots(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThroughputBelowWire(t *testing.T) {
	// Effective throughput must not exceed the wire rate.
	for _, m := range Catalog() {
		for _, n := range []int{16, 256, 1500} {
			tp := m.ThroughputBytesPerSec(n)
			if tp > m.BitsPerSec/8 {
				t.Errorf("%s: throughput %.0f B/s exceeds wire %.0f B/s", m.Name, tp, m.BitsPerSec/8)
			}
			if tp <= 0 {
				t.Errorf("%s: non-positive throughput", m.Name)
			}
		}
	}
}

func TestLookup(t *testing.T) {
	m, err := Lookup("spi")
	if err != nil || m.Name != "spi" {
		t.Errorf("Lookup(spi) = %v, %v", m, err)
	}
	if _, err := Lookup("floppy"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 6 {
		t.Fatalf("Names = %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names not sorted: %v", names)
		}
	}
}
