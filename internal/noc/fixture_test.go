package noc

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ioguard/internal/packet"
	"ioguard/internal/slot"
)

var updateFixture = flag.Bool("update", false, "rewrite testdata/mesh_deliveries.golden from the current mesh")

const deliveryFixture = "testdata/mesh_deliveries.golden"

// burstTraffic is a same-slot contention script: equal-length packets
// injected together at the four neighbours of tile (2,2) complete
// their first hop into (2,2) in the same slot. Three of them (from
// (2,1), (1,2) and (3,2)) then contend for (2,2)'s south port toward
// (2,4), and four more for its local port, so the arbitration order of
// simultaneous hop completions decides every delivery slot. A second
// wave of mixed lengths, injected while the first still queues, keeps
// the contended ports busy across several completions.
func burstTraffic() []injection {
	tile := func(x, y int) packet.NodeID { return NodeAt(Coord{x, y}) }
	var out []injection
	add := func(at slot.Time, src, dst packet.NodeID, payload int) {
		seq := len(out)
		out = append(out, injection{at: at, pkt: packet.New(packet.Header{
			Src: src, Dst: dst, Kind: packet.Request, Op: packet.Write,
			Task: uint16(seq), Seq: uint32(seq),
		}, make([]byte, payload))})
	}
	center := tile(2, 2)
	neighbours := []packet.NodeID{tile(2, 1), tile(1, 2), tile(3, 2), tile(2, 3)}
	for _, src := range neighbours[:3] {
		add(0, src, tile(2, 4), 16)
	}
	for _, src := range neighbours {
		add(0, src, center, 16)
	}
	for k, src := range neighbours {
		add(3, src, tile(2, 4), 8*k)
		add(3, src, center, 40-8*k)
	}
	return out
}

// script is one named injection sequence of the delivery fixture.
type script struct {
	name string
	injs []injection
}

// fixtureScripts returns the traffic the delivery fixture pins:
// TestMeshSkipMatchesStep's 12 seeded scripts, then the burst.
func fixtureScripts() []script {
	var out []script
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		injs := genTraffic(rng, 20+rng.Intn(200), skipHorizon/2)
		out = append(out, script{fmt.Sprintf("seed %d", seed), injs})
	}
	return append(out, script{"burst", burstTraffic()})
}

// renderDeliveries writes one script's delivery sequence, one
// "seq src dst injected now" line per ejection, then its final Stats.
func renderDeliveries(buf *bytes.Buffer, name string, got []delivery, st Stats) {
	fmt.Fprintf(buf, "# %s\n", name)
	for _, d := range got {
		fmt.Fprintf(buf, "%d %d %d %d %d\n", d.pkt.Seq, d.pkt.Src, d.pkt.Dst, d.injected, d.now)
	}
	fmt.Fprintf(buf, "stats %+v\n", st)
}

// TestMeshDeliveryFixture pins the mesh to a recorded delivery
// sequence. The fixture was generated from the original per-slot
// countdown mesh (every active port decremented each slot), so it
// outlives that implementation as the oracle for the event-driven
// one: stepped every slot, the mesh must reproduce every delivery's
// slot and order and the final Stats byte for byte
// (TestMeshSkipMatchesStep extends this to NextWork jumps). Regenerate
// only for an intended behaviour change, with
// go test ./internal/noc -run TestMeshDeliveryFixture -update.
func TestMeshDeliveryFixture(t *testing.T) {
	var buf bytes.Buffer
	for _, sc := range fixtureScripts() {
		got, st, _ := runMesh(t, sc.injs, skipHorizon, false)
		renderDeliveries(&buf, sc.name, got, st)
	}
	path := filepath.FromSlash(deliveryFixture)
	if *updateFixture {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("line %d: got %q, want %q", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%d lines, fixture has %d", len(gl), len(wl))
}
