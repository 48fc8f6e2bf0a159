package iodev

import (
	"testing"

	"ioguard/internal/slot"
)

// TestServiceSlotsExactValues pins the timing model: at 1 µs slots,
// service time = setup + ceil((payload·8 + overhead) / rate · 1e6 µs).
func TestServiceSlotsExactValues(t *testing.T) {
	cases := []struct {
		m     Model
		bytes int
		want  slot.Time
	}{
		// SPI: 50 Mbps, 16 overhead bits, 2 setup slots.
		// 64 B → 528 bits → 10.56 µs → ceil 11 + 2 = 13.
		{SPI, 64, 13},
		// Ethernet: 1 Gbps, 304 overhead bits, 1 setup.
		// 0 B → 304 bits → 0.304 µs → ceil 1 + 1 = 2.
		{Ethernet, 0, 2},
		// FlexRay: 10 Mbps, 80 overhead bits, 2 setup.
		// 100 B → 880 bits → 88 µs → 88 + 2 = 90.
		{FlexRay, 100, 90},
		// CAN: 1 Mbps, 47 overhead bits, 2 setup.
		// 8 B → 111 bits → 111 µs → 111 + 2 = 113.
		{CAN, 8, 113},
	}
	for _, c := range cases {
		if got := c.m.ServiceSlots(c.bytes); got != c.want {
			t.Errorf("%s(%dB) = %d slots, want %d", c.m.Name, c.bytes, got, c.want)
		}
	}
}

func TestSlotsPerSecConstant(t *testing.T) {
	if SlotsPerSec != 1_000_000 {
		t.Errorf("SlotsPerSec = %d; the model is calibrated for 1 µs slots", SlotsPerSec)
	}
	if ClockHz/CyclesPerSlot != SlotsPerSec {
		t.Error("clock constants inconsistent")
	}
}
