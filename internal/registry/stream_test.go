package registry

import (
	"testing"

	"xdx/internal/netsim"
	"xdx/internal/xmltree"
)

func TestEndToEndExchangeNegotiatedBin(t *testing.T) {
	// Binary shipments named per call: the agency names the codec on
	// ExecuteSource, the source ships in it, and the report meters what
	// crossed the link. Run on the auction workload — on a realistically
	// sized shipment the dictionary and delta coding must ship fewer bytes
	// than the xml codec despite the base64 transfer text.
	agA, planA, tgtA, _, doneA := startAuctionExchange(t)
	reportA, err := agA.ExecuteOpts("Auction", planA, ExecOptions{Link: netsim.Loopback()})
	if err != nil {
		t.Fatal(err)
	}
	want := assembleTarget(t, tgtA)
	doneA()

	wireBytes := map[string]int64{"xml": reportA.WireBytes}
	for _, codec := range []string{"bin", "bin+flate"} {
		ag, plan, tgtStore, _, done := startAuctionExchange(t)
		report, err := ag.ExecuteOpts("Auction", plan, ExecOptions{Link: netsim.Loopback(), Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		if report.Codec != codec {
			t.Errorf("report names codec %q, want %q", report.Codec, codec)
		}
		if report.WireBytes <= 0 {
			t.Fatalf("%s: wire=%d; the shipment must be metered", codec, report.WireBytes)
		}
		if report.WireBytes >= wireBytes["xml"] {
			t.Errorf("%s: wire bytes %d >= the xml exchange's %d; the codec should save",
				codec, report.WireBytes, wireBytes["xml"])
		}
		got := assembleTarget(t, tgtStore)
		if !xmltree.Equal(want, got) {
			t.Errorf("%s: document changed in transit", codec)
		}
		wireBytes[codec] = report.WireBytes
		done()
	}
	if wireBytes["bin+flate"] >= wireBytes["bin"] {
		t.Errorf("bin+flate shipment (%d bytes) not smaller than bin (%d bytes)", wireBytes["bin+flate"], wireBytes["bin"])
	}
}
