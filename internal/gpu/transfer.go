package gpu

import "fmt"

// Interconnect models the link carrying KV-cache pages between serving
// instances in a disaggregated prefill/decode deployment: a fixed
// per-transfer setup latency plus a bandwidth term.
type Interconnect struct {
	Name string
	// Bandwidth is the achievable transfer bandwidth in bytes/second.
	Bandwidth float64
	// Latency is the fixed per-migration cost in seconds (connection setup,
	// page-table handoff, scheduler RPC), paid once per transfer regardless
	// of size.
	Latency float64
}

// validate reports whether the interconnect description is usable.
func (ic Interconnect) validate() error {
	if ic.Bandwidth <= 0 {
		return fmt.Errorf("gpu: interconnect %s: non-positive bandwidth", ic.Name)
	}
	if ic.Latency < 0 {
		return fmt.Errorf("gpu: interconnect %s: negative latency", ic.Name)
	}
	return nil
}

// transferTime returns the modeled wall time to move the given byte count
// across the link.
func (ic Interconnect) transferTime(bytes float64) float64 {
	if bytes <= 0 {
		return ic.Latency
	}
	return ic.Latency + bytes/ic.Bandwidth
}

// Stock interconnect profiles, derated from datasheet peaks the same way the
// Hardware profiles are (sustained large-message rates, not burst peaks).
var (
	// PCIe4 is a 16-lane PCIe 4.0 path through host memory — the cheapest
	// intra-node fallback and a deliberately punishing link for ablations.
	PCIe4 = Interconnect{Name: "PCIe4-x16", Bandwidth: 25e9, Latency: 20e-6}

	// RDMA400 is a 400 Gb/s RDMA fabric between nodes (sustained ~50 GB/s),
	// the cross-node link disaggregated deployments actually run on; the
	// default for the disaggregation experiments.
	RDMA400 = Interconnect{Name: "RDMA-400Gb", Bandwidth: 50e9, Latency: 30e-6}
)

// KVTransfer prices the prefill-to-decode handoff of a disaggregated
// deployment: moving a request's prompt KV cache from the prefill instance
// to the decode instance costs bytes = kvBytesPerToken x prompt length over
// the interconnect, plus the link's fixed per-migration latency.
type KVTransfer struct {
	Model ModelSpec
	Link  Interconnect
}

// Validate reports whether the transfer model is usable.
func (t KVTransfer) Validate() error {
	if err := t.Model.validate(); err != nil {
		return err
	}
	return t.Link.validate()
}

// Bytes returns the KV-cache size of a promptTokens-long prefix.
func (t KVTransfer) Bytes(promptTokens int) float64 {
	if promptTokens <= 0 {
		return 0
	}
	return t.Model.kvBytesPerToken() * float64(promptTokens)
}

// Latency returns the modeled wall time of one prefill-to-decode migration
// for a request with the given prompt length.
func (t KVTransfer) Latency(promptTokens int) float64 {
	return t.Link.transferTime(t.Bytes(promptTokens))
}
