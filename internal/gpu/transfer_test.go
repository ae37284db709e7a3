package gpu

import "testing"

func TestInterconnectTransferTime(t *testing.T) {
	ic := Interconnect{Name: "test", Bandwidth: 1e9, Latency: 1e-3}
	if err := ic.validate(); err != nil {
		t.Fatal(err)
	}
	if got := ic.transferTime(0); got != 1e-3 {
		t.Fatalf("zero-byte transfer %g, want the fixed latency", got)
	}
	if got, want := ic.transferTime(2e9), 1e-3+2.0; got != want {
		t.Fatalf("transfer time %g, want %g", got, want)
	}
	bad := Interconnect{Name: "bad", Bandwidth: 0}
	if bad.validate() == nil {
		t.Fatal("zero bandwidth accepted")
	}
	bad = Interconnect{Name: "bad", Bandwidth: 1, Latency: -1}
	if bad.validate() == nil {
		t.Fatal("negative latency accepted")
	}
}

func TestKVTransferPricesPromptKV(t *testing.T) {
	tr := KVTransfer{Model: Llama70B, Link: RDMA400}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := tr.Bytes(700), Llama70B.kvBytesPerToken()*700; got != want {
		t.Fatalf("bytes %g, want %g", got, want)
	}
	if tr.Bytes(0) != 0 || tr.Bytes(-3) != 0 {
		t.Fatal("non-positive prompt lengths should transfer nothing")
	}
	lat := tr.Latency(700)
	if want := RDMA400.Latency + tr.Bytes(700)/RDMA400.Bandwidth; lat != want {
		t.Fatalf("latency %g, want %g", lat, want)
	}
	// A 700-token Llama-70B prompt over 400 Gb RDMA is ~9 ms: the modeled
	// handoff must land in single-digit milliseconds, not microseconds or
	// seconds.
	if lat < 1e-3 || lat > 0.1 {
		t.Fatalf("implausible migration latency %g s", lat)
	}
	// Slower links migrate slower.
	pcie := KVTransfer{Model: Llama70B, Link: PCIe4}
	if pcie.Latency(700) <= lat {
		t.Fatal("PCIe migration not slower than cross-node RDMA")
	}
	if (KVTransfer{Model: Llama70B, Link: Interconnect{}}).Validate() == nil {
		t.Fatal("invalid link accepted")
	}
}
