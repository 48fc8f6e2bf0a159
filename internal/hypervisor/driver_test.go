package hypervisor

import (
	"testing"

	"ioguard/internal/iodev"
)

func TestDriverDefaults(t *testing.T) {
	d := NewDriver(iodev.SPI)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.RequestLatency() != 1 || d.ResponseLatency() != 1 {
		t.Error("default translation costs should be 1 slot each way")
	}
	if d.ServiceSlots(64) != iodev.SPI.ServiceSlots(64) {
		t.Error("ServiceSlots should delegate to the controller model")
	}
}

func TestDriverValidate(t *testing.T) {
	bad := []Driver{
		{Controller: iodev.Model{}},
		{Controller: iodev.SPI, ReqTranslateWCET: -1},
		{Controller: iodev.SPI, RespTranslateWCET: -1},
		{Controller: iodev.SPI, DriverBankKB: -1},
	}
	for i, d := range bad {
		if d.Validate() == nil {
			t.Errorf("case %d: invalid driver accepted", i)
		}
	}
}
