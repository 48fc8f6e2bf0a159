package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"ioguard/internal/slot"
)

// FuzzRequest decodes arbitrary bodies the way decodeRequest does and
// resolves them; it never runs a trial. A body either errors or
// resolves within every admission cap with a valid fault plan, and a
// resolved request, marshalled and decoded again, resolves to the same
// trial — an omitempty on a field whose default is not zero (seed 0
// turning back into seed 1) would break that.
func FuzzRequest(f *testing.F) {
	zeroSeed := lightRequest(1)
	zeroSeed["seed"] = 0
	for _, body := range append([]map[string]any{lightRequest(3), zeroSeed}, badRequests...) {
		b, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, body := range trailingBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decode(bytes.NewReader(body), "")
		if err != nil {
			return
		}
		rq, err := resolve(req)
		if err != nil {
			return
		}
		tr := rq.Trial
		if rq.Trials < 1 || rq.Trials > maxTrials || tr.VMs < 1 || tr.VMs > maxVMs ||
			tr.Horizon < 1 || tr.Horizon > maxHorizon || slot.Time(rq.Trials)*tr.Horizon > maxSlots {
			t.Fatalf("%s resolved outside the caps: %d trials, %d VMs, %d-slot horizon", body, rq.Trials, tr.VMs, tr.Horizon)
		}
		if err := tr.Faults.Validate(); err != nil {
			t.Fatalf("%s resolved with an invalid fault plan: %v", body, err)
		}
		wire, err := json.Marshal(rq.Request)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		again, err := decode(bytes.NewReader(wire), "")
		if err != nil {
			t.Fatalf("%s does not decode: %v", wire, err)
		}
		rq2, err := resolve(again)
		if err != nil {
			t.Fatalf("%s does not resolve: %v", wire, err)
		}
		if rq2.System != rq.System || rq2.Trials != rq.Trials || !reflect.DeepEqual(rq2.Trial, rq.Trial) {
			t.Fatalf("%s resolves differently after a round trip through %s", body, wire)
		}
	})
}
