// Package iodev models the I/O devices and controllers at the far end
// of the I/O-GUARD hypervisor: the standardized I/O controller of the
// virtualization driver operates a connected device using its native
// protocol (SPI, I²C, etc.; Sec. III-B of Jiang et al., DAC'21), and
// the device's bandwidth dominates the service time of each
// operation.
//
// The evaluation platform runs at 100 MHz and schedules in time
// slots; this package fixes one slot = 1 µs (100 clock cycles), the
// granularity at which the prototype's executor switches operations.
package iodev

import (
	"fmt"
	"sort"

	"ioguard/internal/slot"
)

// Timing constants of the evaluation platform.
const (
	ClockHz       = 100_000_000 // 100 MHz system clock
	CyclesPerSlot = 100         // one scheduling slot = 100 cycles
	SlotsPerSec   = ClockHz / CyclesPerSlot
)

// Model describes one device class: its protocol bandwidth and the
// fixed per-operation costs of the controller.
type Model struct {
	Name         string
	Protocol     string  // wire protocol name, e.g. "SPI"
	BitsPerSec   float64 // sustained payload bandwidth
	OverheadBits int     // framing bits per operation (addresses, CRC, ...)
	SetupSlots   slot.Time
}

// Validate reports whether the model is usable.
func (m Model) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("iodev: model without name")
	case m.BitsPerSec <= 0:
		return fmt.Errorf("iodev: %s: non-positive bandwidth", m.Name)
	case m.OverheadBits < 0:
		return fmt.Errorf("iodev: %s: negative overhead", m.Name)
	case m.SetupSlots < 0:
		return fmt.Errorf("iodev: %s: negative setup", m.Name)
	}
	return nil
}

// ServiceSlots returns the number of slots the device is busy
// transferring payloadBytes in one operation, including framing and
// controller setup. The result is at least 1.
func (m Model) ServiceSlots(payloadBytes int) slot.Time {
	if payloadBytes < 0 {
		payloadBytes = 0
	}
	bits := float64(payloadBytes*8 + m.OverheadBits)
	secs := bits / m.BitsPerSec
	xfer := slot.Time(secs * SlotsPerSec)
	if float64(xfer) < secs*SlotsPerSec {
		xfer++ // ceil
	}
	n := m.SetupSlots + xfer
	if n < 1 {
		n = 1
	}
	return n
}

// ThroughputBytesPerSec returns the effective payload throughput when
// repeatedly transferring ops of payloadBytes.
func (m Model) ThroughputBytesPerSec(payloadBytes int) float64 {
	s := m.ServiceSlots(payloadBytes)
	return float64(payloadBytes) / (float64(s) / SlotsPerSec)
}

// Standard device models of the evaluation platform (Sec. V): the
// raw data arrives via 1 Gbps Ethernet and results leave via 10 Mbps
// FlexRay; SPI/I²C/UART/CAN are the peripheral classes whose drivers
// Fig. 6 sizes.
var (
	SPI      = Model{Name: "spi", Protocol: "SPI", BitsPerSec: 50e6, OverheadBits: 16, SetupSlots: 2}
	I2C      = Model{Name: "i2c", Protocol: "I2C", BitsPerSec: 400e3, OverheadBits: 29, SetupSlots: 2}
	UART     = Model{Name: "uart", Protocol: "UART", BitsPerSec: 115200, OverheadBits: 20, SetupSlots: 1}
	CAN      = Model{Name: "can", Protocol: "CAN", BitsPerSec: 1e6, OverheadBits: 47, SetupSlots: 2}
	Ethernet = Model{Name: "ethernet", Protocol: "Ethernet", BitsPerSec: 1e9, OverheadBits: 304, SetupSlots: 1}
	FlexRay  = Model{Name: "flexray", Protocol: "FlexRay", BitsPerSec: 10e6, OverheadBits: 80, SetupSlots: 2}
)

// Catalog returns the standard models keyed by name.
func Catalog() map[string]Model {
	return map[string]Model{
		SPI.Name:      SPI,
		I2C.Name:      I2C,
		UART.Name:     UART,
		CAN.Name:      CAN,
		Ethernet.Name: Ethernet,
		FlexRay.Name:  FlexRay,
	}
}

// Names returns the sorted names of the standard models.
func Names() []string {
	c := Catalog()
	out := make([]string, 0, len(c))
	for n := range c {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the standard model with the given name.
func Lookup(name string) (Model, error) {
	m, ok := Catalog()[name]
	if !ok {
		return Model{}, fmt.Errorf("iodev: unknown device %q", name)
	}
	return m, nil
}
